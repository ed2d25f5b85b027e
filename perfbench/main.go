// Command perfbench is the repository's end-to-end benchmark. It runs one
// paper-shaped workload through the public protocol APIs with a single
// closed-loop caller, checks every opened output against the plain
// engine, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured without
// telemetry. With --trace 1 the run alternates between an untraced and a
// traced session and reports the per-layer split, attributed from the
// outside only: timed calls into each layer's public functions, the
// core.Trace counters, and the obs spans and metrics the program already
// emits into a Recorder the benchmark supplies.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	python3 perfbench/run.py --workload pca-release --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py compare base.jsonl head.jsonl
//
// setup_s is the median of five cold set-ups, each run by this
// executable in a fresh process (the internal `setup` subcommand), so a
// first-call cost is never hidden by an earlier set-up in the same
// process.
//
// Workloads: pca-release, lr3-train-mono. --smoke shrinks every shape
// for a seconds-long check of every path.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/obs"
)

// wanRoundLatency is the paper's modeled per-round network latency. The
// modeled WAN time is reported beside measured time, never added to it.
const wanRoundLatency = 0.1 // seconds

// smokeOps is the op count per lane of a smoke run.
const smokeOps = 3

// traceSegments is how many alternating untraced/traced segments a
// traced run's window is cut into, so both sessions see the same
// machine conditions.
const traceSegments = 8

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	ops      int // fixed op count per lane instead of a timed window (0: timed)
	setups   int // cold set-up processes; setup_s is their median
	outDir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "setup" {
		return setupMain(args[1:], stdout, stderr)
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := saveRecord(o, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rec)
	line, err := json.Marshal(rec.result(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: pca-release or lr3-train-mono")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny shapes, two set-ups and a few ops per lane, for tests")
	fs.StringVar(&o.outDir, "out", filepath.Join(".perfbench", "out"), "directory for the result record and span dump")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.workload == "" {
		return o, errors.New("--workload is required")
	}
	o.setups = 5
	if o.smoke {
		o.ops, o.setups = smokeOps, 2
	} else if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	return o, nil
}

// machine records where a result was measured; results from different
// core counts are not compared.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisMachine() machine {
	return machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result: machine and seed, the gate outcome,
// and every metric the run measured (the contract line is a subset).
type record struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Smoke      bool              `json:"smoke"`
	Machine    machine           `json:"machine"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// result is the contract line: exactly the end-to-end metrics, or
// exactly the per-layer ones for a traced run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = r.Metrics[d.name]
	}
	return out
}

// lane is one session's share of the timed window.
type lane struct {
	sess   session
	traced bool
	offset int // ops the session recorded before the window (a set-up release)

	walls  []float64    // seconds per op
	failed map[int]bool // timed op index → failed a gate

	compute, noise, wall, release time.Duration
	circuit                       circuitTimes
	stats                         bgw.Stats
	spans                         int

	mallocs, allocBytes, gcPauseNs uint64 // untraced lanes only

	// Traced lanes only: registry deltas over the lane's blocks, so the
	// traced set-up's traffic is left out.
	frames, bytes, poolReused, timeouts int64
	latency                             latency
}

func (l *lane) ops() int { return len(l.walls) }

// gates holds the run's correctness checks. A violation fails the run;
// nothing is averaged away.
type gates struct {
	violations []string
	byBatch    map[int]bgw.Stats // first counters seen per batch size
}

func (g *gates) fail(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// checkOp applies the per-op gates: the plan shape, and counters that
// repeat exactly for every op of the same batch size.
func (g *gates) checkOp(w *workload, out opOut) bool {
	ok := true
	if out.tr.Stats.Rounds != w.rounds {
		g.fail("plan shape: op ran %d rounds, want %d", out.tr.Stats.Rounds, w.rounds)
		ok = false
	}
	if prev, seen := g.byBatch[out.batch]; seen && prev != out.tr.Stats {
		g.fail("counters for batch size %d changed: %+v then %+v", out.batch, prev, out.tr.Stats)
		ok = false
	} else if !seen {
		g.byBatch[out.batch] = out.tr.Stats
	}
	return ok
}

func execute(o options, stderr io.Writer) (*record, error) {
	w, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	defer heap.freeze()
	g := &gates{byBatch: map[int]bgw.Stats{}}

	// setup_s is the median of cold set-ups, each in its own process.
	setups, violations, err := coldSetups(o, stderr)
	if err != nil {
		return nil, err
	}
	g.violations = append(g.violations, violations...)
	for _, st := range setups[1:] {
		if st.stats != setups[0].stats {
			g.fail("set-up counters changed between set-ups: %+v then %+v", setups[0].stats, st.stats)
		}
	}
	// The untraced lane's own set-up, in this process; its times are not
	// reported.
	offset := setupOffset(w)
	sess, st, err := w.open(telemetry{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	lanes := []*lane{{sess: sess, offset: offset, failed: map[int]bool{}}}
	defer func() {
		for _, l := range lanes {
			l.sess.close()
		}
	}()
	if st.stats != setups[0].stats {
		g.fail("set-up counters changed between set-ups: %+v then %+v", setups[0].stats, st.stats)
	}

	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder()
		tc := obs.NewTraceContext(obs.DeriveTraceID(o.seed, parties), 0)
		ts, st, err := w.open(telemetry{rec: rec, tc: tc})
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		if st.stats != setups[0].stats {
			g.fail("tracing changed the set-up counters: %+v vs %+v", setups[0].stats, st.stats)
		}
		rec.take() // set-up spans are not op spans
		lanes = append(lanes, &lane{sess: ts, traced: true, offset: offset, failed: map[int]bool{}})
	}

	runWindow(o, w, lanes, rec, g)
	heapPeak := heap.finish()

	for _, l := range lanes {
		if err := verifyLane(l, g); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, fmt.Errorf("out dir: %w", err)
		}
		if err := rec.dump(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))); err != nil {
			return nil, err
		}
	}

	r := &record{
		Workload: w.name, Why: w.why, Seed: o.seed, Trace: o.trace, Smoke: o.smoke,
		Machine: thisMachine(), Metrics: map[string]metric{},
	}
	for _, l := range lanes {
		r.Attempted += l.ops()
		r.Failed += len(l.failed)
	}
	r.Violations = g.violations
	r.Correct = len(g.violations) == 0 && r.Attempted > 0
	fillMetrics(r, w, setups, lanes, heapPeak)
	return r, nil
}

// verifyLane replays a lane's recorded ops on the plain engine. A
// mismatch fails the run; one among the timed ops also marks that op
// failed.
func verifyLane(l *lane, g *gates) error {
	bad, err := l.sess.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, i := range bad {
		if i < l.offset {
			g.fail("set-up op %d: opened values differ from the plain engine", i)
			continue
		}
		g.fail("op %d (traced=%v): opened values differ from the plain engine", i-l.offset, l.traced)
		l.failed[i-l.offset] = true
	}
	return nil
}

// runWindow runs the timed ops: one closed-loop caller, each op waiting
// for the previous one. A traced run alternates lanes in time segments
// (or op by op in a smoke run).
func runWindow(o options, w *workload, lanes []*lane, rec *spanRecorder, g *gates) {
	dur := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var ms runtime.MemStats
	var mark regMark
	laneAt := func(opIdx int, now time.Duration) *lane {
		if len(lanes) == 1 {
			return lanes[0]
		}
		if o.ops > 0 {
			return lanes[opIdx%2]
		}
		return lanes[int(now*traceSegments/dur)%2]
	}
	done := func(opIdx int, now time.Duration) bool {
		if o.ops > 0 {
			return opIdx >= o.ops*len(lanes)
		}
		return now >= dur && opIdx > 0
	}
	var cur *lane
	closeBlock := func() {
		if cur == nil {
			return
		}
		prev := ms
		runtime.ReadMemStats(&ms)
		if !cur.traced {
			cur.mallocs += ms.Mallocs - prev.Mallocs
			cur.allocBytes += ms.TotalAlloc - prev.TotalAlloc
			cur.gcPauseNs += ms.PauseTotalNs - prev.PauseTotalNs
		} else {
			d := readRegistry(rec).minus(mark)
			cur.frames += d.frames
			cur.bytes += d.bytes
			cur.poolReused += d.poolReused
			cur.timeouts += d.timeouts
			cur.latency.add(d.latency, 1)
		}
	}
	for i := 0; ; i++ {
		now := time.Since(start)
		if done(i, now) {
			break
		}
		l := laneAt(i, now)
		if l != cur {
			closeBlock()
			runtime.ReadMemStats(&ms)
			if l.traced {
				mark = readRegistry(rec)
			}
			cur = l
		}
		t0 := time.Now()
		out, err := l.sess.step()
		wall := time.Since(t0)
		idx := l.ops()
		l.walls = append(l.walls, wall.Seconds())
		if err != nil {
			g.fail("op %d (traced=%v): %v", idx, l.traced, err)
			l.failed[idx] = true
			break // a failed op may leave the session unusable
		}
		if !g.checkOp(w, out) {
			l.failed[idx] = true
		}
		l.wall += wall
		l.release += out.release
		l.compute += out.tr.Compute
		l.noise += out.tr.NoiseCompute
		l.stats = addStats(l.stats, out.tr.Stats)
		if l.traced {
			spans := rec.take()
			l.spans += len(spans)
			ct := attributeCircuit(spans)
			l.circuit.exec += ct.exec
			l.circuit.local += ct.local
			l.circuit.level += ct.level
			l.circuit.open += ct.open
		}
	}
	closeBlock()
}

func addStats(a, b bgw.Stats) bgw.Stats {
	return bgw.Stats{
		Rounds: a.Rounds + b.Rounds, Frames: a.Frames + b.Frames, Messages: a.Messages + b.Messages,
		Bytes: a.Bytes + b.Bytes, FieldOps: a.FieldOps + b.FieldOps,
	}
}

// regMark is a snapshot of the registry counters a traced lane reads.
type regMark struct {
	frames, bytes, poolReused, timeouts int64
	latency                             latency // send→recv, both mesh kinds
}

var meshPrefixes = []string{"transport.net", "transport.chan"}

func readRegistry(rec *spanRecorder) regMark {
	m := rec.Metrics()
	var r regMark
	for _, p := range meshPrefixes {
		r.frames += m.Counter(p + ".frames").Value()
		r.bytes += m.Counter(p + ".bytes").Value()
		r.timeouts += m.Counter(p + ".recv.timeouts").Value()
		r.latency.add(latencyOf(m.Histogram(p+".send_recv.seconds").Snapshot()), 1)
	}
	r.poolReused = m.Counter("bgw.pool.reused").Value()
	return r
}

func (a regMark) minus(b regMark) regMark {
	d := regMark{
		frames: a.frames - b.frames, bytes: a.bytes - b.bytes,
		poolReused: a.poolReused - b.poolReused, timeouts: a.timeouts - b.timeouts,
	}
	d.latency.add(a.latency, 1)
	d.latency.add(b.latency, -1)
	return d
}

// latency is a send→recv latency histogram: n[i] observations fell in
// bucket i, whose upper bound is le[i] seconds. Every mesh histogram
// shares one bucket ladder, so bucket i means the same in all of them.
type latency struct {
	le []float64
	n  []int64
}

// latencyOf converts a snapshot's cumulative buckets to per-bucket counts.
func latencyOf(s obs.HistogramSnapshot) latency {
	var h latency
	var prev int64
	for _, b := range s.Buckets {
		h.le = append(h.le, b.LE)
		h.n = append(h.n, b.Count-prev)
		prev = b.Count
	}
	return h
}

// add adds sign × o's counts to h, growing h to o's buckets.
func (h *latency) add(o latency, sign int64) {
	for i, n := range o.n {
		if i == len(h.n) {
			h.le = append(h.le, o.le[i])
			h.n = append(h.n, 0)
		}
		h.n[i] += sign * n
	}
}

// p50 interpolates the median latency, in seconds (0 when empty).
func (h latency) p50() float64 {
	cum := make([]int64, len(h.n))
	var c int64
	for i, n := range h.n {
		c += n
		cum[i] = c
	}
	return histQuantile(h.le, cum, 0.5)
}

// setupMedian is the median over set-ups of one of their times, in
// seconds.
func setupMedian(xs []setupTimes, f func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x).Seconds()
	}
	return median(v)
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func fillMetrics(r *record, w *workload, setups []setupTimes, lanes []*lane, heapPeak uint64) {
	put := func(name string, v float64) {
		r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	u := lanes[0] // untraced lane
	n := u.ops()
	setupS := setupMedian(setups, func(s setupTimes) time.Duration { return s.total })
	calib := setupMedian(setups, func(s setupTimes) time.Duration { return s.calibrate })
	quantS := setupMedian(setups, func(s setupTimes) time.Duration { return s.quant })
	share := setupMedian(setups, func(s setupTimes) time.Duration {
		return s.ctor - time.Duration(s.quantCalls)*s.quant
	})
	put("setup_s", setupS)
	put("ops_per_s", blockRate(u.walls))
	put("op_p50_ms", millis(median(u.walls)))
	rounds := perOp(float64(u.stats.Rounds), n)
	put("rounds_per_op", rounds)
	put("frames_per_op", perOp(float64(u.stats.Frames), n))
	put("bytes_per_op", perOp(float64(u.stats.Bytes), n))
	put("heap_peak_mb", megabytes(heapPeak))
	put("fail_ratio", perOp(float64(r.Failed), r.Attempted))
	put("modeled_wan_s_per_op", rounds*wanRoundLatency)

	tailPct := tailPercentile(n)
	put("core.op_tail_ms", millis(percentile(u.walls, tailPct)))
	put("core.op_tail_pct", tailPct)
	put("core.op_samples", float64(n))
	put("dp.calibrate_s", calib)
	put("quant.matrix_s", quantS)
	put("core.setup_share_s", nonNeg(share))
	put("randx.skellam_draws_per_op", float64(w.draws))
	put("runtime.allocs_per_op", perOp(float64(u.mallocs), n))
	put("runtime.alloc_bytes_per_op", perOp(float64(u.allocBytes), n))
	put("runtime.gc_pause_s_per_op", perOp(float64(u.gcPauseNs)/1e9, n))
	if len(lanes) < 2 {
		return
	}

	t := lanes[1]
	tn := t.ops()
	mean := func(d time.Duration) float64 { return perOp(d.Seconds(), tn) }
	wall, release, compute, noise := mean(t.wall), mean(t.release), mean(t.compute), mean(t.noise)
	exec, local, level, open := mean(t.circuit.exec), mean(t.circuit.local), mean(t.circuit.level), mean(t.circuit.open)
	var calibOp, quantOp, post float64
	if w.perOpSetup {
		// The set-up's timed calls estimate the calibration and
		// quantization inside each release; an estimate is capped by the
		// time it is carved from, so the parts never overlap.
		calibOp = math.Min(calib, nonNeg(release-compute))
		post = release - compute - calibOp
		quantOp = math.Min(quantS, nonNeg(compute-noise-exec))
	}
	coreSelf := nonNeg(compute - quantOp - noise - exec)
	attributed := calibOp + quantOp + noise + local + level + open + coreSelf + post
	put("obs.attributed_s_per_op", attributed)
	put("randx.noise_s_per_op", noise)
	put("circuit.exec_s_per_op", exec)
	put("circuit.local_s_per_op", local)
	put("circuit.level_s_per_op", level)
	put("circuit.open_s_per_op", open)
	put("bgw.fieldops_per_op", perOp(float64(t.stats.FieldOps), tn))
	put("bgw.messages_per_op", perOp(float64(t.stats.Messages), tn))
	put("bgw.pool_reused_per_op", perOp(float64(t.poolReused), tn))
	put("transport.send_recv_p50_us", micros(t.latency.p50()))
	put("transport.frames_per_op", perOp(float64(t.frames), tn))
	put("transport.bytes_per_op", perOp(float64(t.bytes), tn))
	put("transport.recv_timeouts", float64(t.timeouts))
	put("core.compute_s_per_op", compute)
	put("core.self_s_per_op", coreSelf)
	put("pca.post_s_per_op", post)
	put("obs.op_wall_s_per_op", wall)
	put("obs.unattributed_s_per_op", nonNeg(wall-attributed))
	put("obs.spans_per_op", perOp(float64(t.spans), tn))
	var overhead float64
	if base := blockRate(u.walls); base > 0 {
		overhead = blockRate(t.walls) / base
	}
	put("obs.trace_overhead_ratio", overhead)
}

// saveRecord appends the run's record to results.jsonl in the out dir.
func saveRecord(o options, r *record) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("out dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(o.outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return fmt.Errorf("result record: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result record: %w", err)
	}
	return f.Close()
}

// printReport writes the human-readable report: machine and seed, then
// every metric by name with its unit.
func printReport(w io.Writer, r *record) {
	m := r.Machine
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  smoke %v\n", r.Workload, r.Seed, r.Trace, r.Smoke)
	fmt.Fprintf(w, "machine  num_cpu %d  GOMAXPROCS %d  %s %s/%s\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch)
	fmt.Fprintf(w, "why      %s\n", r.Why)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		note := ""
		if name == "modeled_wan_s_per_op" {
			note = "  (rounds_per_op x 0.1 s: modeled, never added to measured time)"
		}
		fmt.Fprintf(w, "  %-32s %16s %s%s\n", name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, note)
	}
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, v := range r.Violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
}
