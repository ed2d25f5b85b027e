package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"sqm/internal/bgw"
)

// setupTimeout bounds one set-up process.
const setupTimeout = 60 * time.Second

// setupReport is what a set-up process prints as its last line: one
// cold set-up's times and counters, and the gate violations its set-up
// op raised.
type setupReport struct {
	TotalNs, CalibrateNs, QuantNs, CtorNs int64
	QuantCalls                            int
	Stats                                 bgw.Stats
	Violations                            []string
}

func (r setupReport) times() setupTimes {
	return setupTimes{
		total: time.Duration(r.TotalNs), calibrate: time.Duration(r.CalibrateNs),
		quant: time.Duration(r.QuantNs), ctor: time.Duration(r.CtorNs),
		quantCalls: r.QuantCalls, stats: r.Stats,
	}
}

// setupOffset is how many ops a session records during its set-up: a
// release's set-up is its first op.
func setupOffset(w *workload) int {
	if w.perOpSetup {
		return 1
	}
	return 0
}

// setupMain runs the `setup` subcommand: one set-up of the workload in
// this fresh process, its set-up op checked against the plain engine,
// then the report as one JSON line.
func setupMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err == nil {
		var rep setupReport
		rep, err = oneSetup(o)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench setup:", err)
		return 1
	}
	return 0
}

func oneSetup(o options) (setupReport, error) {
	w, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		return setupReport{}, err
	}
	s, st, err := w.open(telemetry{})
	if err != nil {
		return setupReport{}, fmt.Errorf("set-up: %w", err)
	}
	g := &gates{byBatch: map[int]bgw.Stats{}}
	err = verifyLane(&lane{sess: s, offset: setupOffset(w), failed: map[int]bool{}}, g)
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("set-up close: %w", cerr)
	}
	return setupReport{
		TotalNs: int64(st.total), CalibrateNs: int64(st.calibrate), QuantNs: int64(st.quant),
		CtorNs: int64(st.ctor), QuantCalls: st.quantCalls, Stats: st.stats, Violations: g.violations,
	}, err
}

// coldSetups runs o.setups set-ups, each in a fresh process of this
// executable, one after another. Every set-up is therefore cold: no
// earlier set-up in the same process has warmed the heap, the runtime or
// any cache the program keeps, so work a change moves into a first call
// shows in setup_s.
func coldSetups(o options, stderr io.Writer) ([]setupTimes, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up process: %w", err)
	}
	args := []string{"setup", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	var times []setupTimes
	var violations []string
	for i := 0; i < o.setups; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up process %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rep setupReport
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return nil, nil, fmt.Errorf("set-up process %d: %w", i, err)
		}
		times = append(times, rep.times())
		violations = append(violations, rep.Violations...)
	}
	return times, violations, nil
}
