package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sqm/internal/obs"
)

// span is one timed region the program reported through obs: every
// event carrying a "seconds" attribute is the End of a Span or
// TracedSpan, so its start is the event time minus that duration.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	ID     string    `json:"span,omitempty"`
	Parent string    `json:"parent,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanRecorder is the benchmark's obs.Recorder: it admits every level,
// so the program's span instrumentation activates, keeps span events in
// memory, drops the rest, and owns the metric registry the engines and
// meshes report counters and histograms into.
type spanRecorder struct {
	metrics *obs.Metrics

	mu      sync.Mutex
	all     []span // every span of the run, for the dump
	pending int    // all[pending:] has not been taken yet
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{metrics: obs.NewMetrics()} }

func (r *spanRecorder) Enabled(obs.Level) bool { return true }

func (r *spanRecorder) Metrics() *obs.Metrics { return r.metrics }

func (r *spanRecorder) Event(_ obs.Level, name string, attrs ...obs.Attr) {
	end := time.Now()
	s := span{Name: name, End: end}
	isSpan := false
	for _, a := range attrs {
		switch a.Key {
		case "seconds":
			if secs, ok := a.Value().(float64); ok {
				s.Start = end.Add(-time.Duration(secs * float64(time.Second)))
				isSpan = true
			}
		case "span":
			s.ID, _ = a.Value().(string)
		case "parent":
			s.Parent, _ = a.Value().(string)
		}
	}
	if !isSpan {
		return
	}
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// take returns the spans recorded since the previous take.
func (r *spanRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.all[r.pending:]
	r.pending = len(r.all)
	return out
}

// dump writes every span as one JSON line to path.
func (r *spanRecorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// selfTime returns a span's duration minus the part of its interval
// that its direct children cover. Overlapping children are merged, so a
// region two children share is subtracted once, and children are
// clipped to the parent's interval.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// circuitTimes splits one op's plan executions into the exec span's
// self time (input sharing and the linear pass) and its level and open
// children. Children attach to their exec span by parent id.
type circuitTimes struct {
	exec, local, level, open time.Duration
}

func attributeCircuit(spans []span) circuitTimes {
	var ct circuitTimes
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "circuit.exec":
			ct.exec += s.dur()
			ct.local += selfTime(s, children[s.ID])
		case "circuit.level":
			ct.level += s.dur()
		case "circuit.open":
			ct.open += s.dur()
		}
	}
	return ct
}
