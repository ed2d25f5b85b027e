package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/obs"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {109, 90},
		{199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 2*minBeyond && c.n-rankOf(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, got, c.n-rankOf(got, c.n), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestUnitConversions(t *testing.T) {
	checks := []struct {
		name      string
		got, want float64
	}{
		{"millis", millis(0.0015), 1.5},
		{"micros", micros(0.002), 2000},
		{"megabytes", megabytes(2_500_000), 2.5},
		{"perOp", perOp(10, 4), 2.5},
		{"perOp zero ops", perOp(10, 0), 0},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for name, unit := range map[string]string{
		"setup_s": "s", "op_p50_ms": "ms", "heap_peak_mb": "MB", "bytes_per_op": "B",
		"transport.send_recv_p50_us": "us", "modeled_wan_s_per_op": "s",
	} {
		if got := unitOf(name); got != unit {
			t.Errorf("unitOf(%s) = %q, want %q", name, got, unit)
		}
	}
}

func TestBlockRateIgnoresABurst(t *testing.T) {
	walls := make([]float64, 100)
	for i := range walls {
		walls[i] = 0.002
	}
	if got := blockRate(walls); math.Abs(got-500) > 1e-9 {
		t.Errorf("steady 2 ms ops: %v op/s, want 500", got)
	}
	for i := 30; i < 50; i++ { // two of ten blocks run 3x slower
		walls[i] = 0.006
	}
	if got := blockRate(walls); math.Abs(got-500) > 1e-9 {
		t.Errorf("with a burst in two blocks: %v op/s, want 500", got)
	}
	if got := blockRate([]float64{0.5, 0.25}); math.Abs(got-3) > 1e-9 {
		t.Errorf("two ops: %v op/s, want the median of 2 and 4", got)
	}
	if got := blockRate(nil); got != 0 {
		t.Errorf("no ops: %v, want 0", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	les := []float64{1, 2, 4, 8}
	cum := []int64{0, 10, 10, 20}
	if got := histQuantile(les, cum, 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("p50 = %v, want 2 (top of the second bucket)", got)
	}
	if got := histQuantile(les, cum, 0.75); math.Abs(got-6) > 1e-12 {
		t.Errorf("p75 = %v, want 6 (half way through the last bucket)", got)
	}
	if got := histQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// TestLatencyDeltaLeavesOutEarlierTraffic: a window's latency is the
// difference of two registry snapshots, so observations made before the
// window (set-up traffic) do not move its median.
func TestLatencyDeltaLeavesOutEarlierTraffic(t *testing.T) {
	snap := func(cum ...int64) obs.HistogramSnapshot {
		s := obs.HistogramSnapshot{Count: cum[len(cum)-1]}
		for i, c := range cum {
			s.Buckets = append(s.Buckets, obs.HistBucket{LE: float64(int(1) << i), Count: c})
		}
		return s
	}
	// Set-up: 100 observations in bucket 0. Window: 10 more in bucket 2.
	before := regMark{latency: latencyOf(snap(100)), timeouts: 3}
	after := regMark{latency: latencyOf(snap(100, 100, 110)), timeouts: 5}
	d := after.minus(before)
	if got := d.latency.p50(); math.Abs(got-3) > 1e-12 {
		t.Errorf("window p50 = %v, want 3 (half way through bucket 2)", got)
	}
	if d.timeouts != 2 {
		t.Errorf("window timeouts = %d, want 2", d.timeouts)
	}
	var l latency
	l.add(d.latency, 1)
	l.add(d.latency, 1)
	if got := l.p50(); math.Abs(got-3) > 1e-12 {
		t.Errorf("two windows p50 = %v, want 3", got)
	}
	if got := (latency{}).p50(); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// at returns a span over [lo, hi] milliseconds after a fixed origin.
func at(name string, lo, hi int, id, parent string) span {
	t0 := time.Unix(1000, 0)
	return span{Name: name, Start: t0.Add(time.Duration(lo) * time.Millisecond),
		End: t0.Add(time.Duration(hi) * time.Millisecond), ID: id, Parent: parent}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	parent := at("p", 0, 100, "p", "")
	children := []span{
		at("a", 10, 30, "a", "p"),
		at("b", 20, 40, "b", "p"),   // overlaps its sibling a: [10,40] counts once
		at("c", 50, 60, "c", "p"),   // disjoint sibling
		at("d", 90, 120, "d", "p"),  // clipped to the parent's end
		at("e", -20, -10, "e", "p"), // wholly outside: ignored
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("childless self time = %v, want the full duration", got)
	}

	// Only direct children count: a grandchild inside a level span does
	// not reduce the exec span's self time a second time.
	spans := []span{
		at("circuit.exec", 0, 100, "x", ""),
		at("circuit.level", 10, 50, "l", "x"),
		at("bgw.inner", 20, 30, "g", "l"),
		at("circuit.open", 60, 70, "o", "x"),
	}
	ct := attributeCircuit(spans)
	if ct.exec != 100*time.Millisecond || ct.level != 40*time.Millisecond || ct.open != 10*time.Millisecond {
		t.Errorf("circuit times = %+v", ct)
	}
	if ct.local != 50*time.Millisecond {
		t.Errorf("exec self time = %v, want 50ms", ct.local)
	}
	if ct.local+ct.level+ct.open != ct.exec {
		t.Errorf("local+level+open = %v, want exec %v", ct.local+ct.level+ct.open, ct.exec)
	}
}

// tracedLanes builds an untraced and a traced lane with the given mean
// per-op times over n ops.
func tracedLanes(n int, wall, compute, noise time.Duration, ct circuitTimes) []*lane {
	u := &lane{walls: make([]float64, n), failed: map[int]bool{}}
	tr := &lane{traced: true, walls: make([]float64, n), failed: map[int]bool{}}
	for i := range u.walls {
		u.walls[i], tr.walls[i] = wall.Seconds(), wall.Seconds()
	}
	tr.wall, tr.compute, tr.noise = time.Duration(n)*wall, time.Duration(n)*compute, time.Duration(n)*noise
	tr.circuit = circuitTimes{
		exec: time.Duration(n) * ct.exec, local: time.Duration(n) * ct.local,
		level: time.Duration(n) * ct.level, open: time.Duration(n) * ct.open,
	}
	return []*lane{u, tr}
}

// disjointSum adds the disjoint layer times of a traced training record.
func disjointSum(r *record) float64 {
	return r.Metrics["randx.noise_s_per_op"].Value + r.Metrics["circuit.local_s_per_op"].Value +
		r.Metrics["circuit.level_s_per_op"].Value + r.Metrics["circuit.open_s_per_op"].Value +
		r.Metrics["core.self_s_per_op"].Value + r.Metrics["pca.post_s_per_op"].Value
}

func TestUnattributedNeverNegative(t *testing.T) {
	ms := time.Millisecond
	w := &workload{name: "t", rounds: 3}
	setups := []setupTimes{{total: 300 * ms, calibrate: 250 * ms, quant: 5 * ms, ctor: 40 * ms, quantCalls: 1}}

	// Honest attribution: the layers fit inside the op, the rest is
	// unattributed, and the parts add up to the op wall-clock.
	r := &record{Metrics: map[string]metric{}}
	ct := circuitTimes{exec: 6 * ms, local: 3 * ms, level: 2 * ms, open: 1 * ms}
	fillMetrics(r, w, setups, tracedLanes(4, 10*ms, 8*ms, 1*ms, ct), 1<<20)
	un := r.Metrics["obs.unattributed_s_per_op"].Value
	if math.Abs(un-0.002) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.002", un)
	}
	if got := r.Metrics["obs.attributed_s_per_op"].Value; math.Abs(got-disjointSum(r)) > 1e-12 {
		t.Errorf("attributed = %v, want the sum of the layer times %v", got, disjointSum(r))
	}
	if got, want := disjointSum(r)+un, r.Metrics["obs.op_wall_s_per_op"].Value; math.Abs(got-want) > 1e-12 {
		t.Errorf("layers + unattributed = %v, want op wall %v", got, want)
	}
	if got := r.Metrics["core.setup_share_s"].Value; math.Abs(got-0.035) > 1e-12 {
		t.Errorf("setup share = %v, want ctor minus quantization 0.035", got)
	}

	// A release's calibration and quantization are estimates from the
	// set-up's timed calls; an estimate larger than the time it is carved
	// from is capped, so the parts still sum to the release wall-clock.
	r = &record{Metrics: map[string]metric{}}
	lanes := tracedLanes(4, 10*ms, 8*ms, 1*ms, ct)
	lanes[1].release = 4 * 9500 * time.Microsecond
	fillMetrics(r, &workload{perOpSetup: true}, setups, lanes, 1<<20)
	if got := r.Metrics["obs.attributed_s_per_op"].Value; math.Abs(got-0.0095) > 1e-12 {
		t.Errorf("release attributed = %v, want the release wall 0.0095", got)
	}
	if got := r.Metrics["obs.unattributed_s_per_op"].Value; math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("release unattributed = %v, want 0.0005", got)
	}

	// Over-attribution (a layer reading more than the op took) clamps to
	// zero instead of going negative.
	r = &record{Metrics: map[string]metric{}}
	ct = circuitTimes{exec: 9 * ms, local: 5 * ms, level: 3 * ms, open: 1 * ms}
	fillMetrics(r, w, setups, tracedLanes(4, 10*ms, 12*ms, 2*ms, ct), 1<<20)
	if un := r.Metrics["obs.unattributed_s_per_op"].Value; un < 0 || un > 0 {
		t.Errorf("unattributed = %v, want clamped to 0", un)
	}
	for name, m := range r.Metrics {
		if m.Value < 0 {
			t.Errorf("%s = %v is negative", name, m.Value)
		}
	}
}

func TestGatesTripOnPlanShapeAndCounterDrift(t *testing.T) {
	w := &workload{rounds: 3}
	g := &gates{byBatch: map[int]bgw.Stats{}}
	ok := g.checkOp(w, opOut{batch: 7, tr: &core.Trace{Stats: bgw.Stats{Rounds: 3, Frames: 12, Bytes: 96}}})
	ok = ok && g.checkOp(w, opOut{batch: 7, tr: &core.Trace{Stats: bgw.Stats{Rounds: 3, Frames: 12, Bytes: 96}}})
	if !ok || len(g.violations) != 0 {
		t.Fatalf("repeating counters tripped the gate: %v", g.violations)
	}
	if g.checkOp(w, opOut{batch: 7, tr: &core.Trace{Stats: bgw.Stats{Rounds: 3, Frames: 12, Bytes: 104}}}) {
		t.Error("a changed byte count for the same batch size passed")
	}
	if g.checkOp(w, opOut{batch: 8, tr: &core.Trace{Stats: bgw.Stats{Rounds: 4}}}) {
		t.Error("a 4-round op passed a 3-round plan-shape gate")
	}
	if len(g.violations) != 2 {
		t.Errorf("violations = %v, want 2", g.violations)
	}
}

func TestCorrectnessGateTripsOnPerturbedOutput(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := w.open(telemetry{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			for i := 0; i < 3; i++ {
				if _, err := s.step(); err != nil {
					t.Fatal(err)
				}
			}
			if bad, err := s.verify(); err != nil || len(bad) != 0 {
				t.Fatalf("unperturbed verify = %v, %v", bad, err)
			}
			// Perturb one opened value of op 1 by one unit in the last place.
			switch s := s.(type) {
			case *pcaSession:
				s.subs[1].Data[0] = math.Nextafter(s.subs[1].Data[0], math.Inf(1))
			case *trainSession:
				s.outs[1][0]++
			}
			bad, err := s.verify()
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) != 1 || bad[0] != 1 {
				t.Errorf("perturbed verify flagged %v, want [1]", bad)
			}
		})
	}
}

func TestCompareSkipsOtherCoreCounts(t *testing.T) {
	mk := func(cpus int, ops float64) record {
		r := record{Workload: "lr3-train-mono", Correct: true, Machine: machine{NumCPU: cpus, GOMAXPROCS: cpus},
			Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metric{Value: 1, Unit: d.unit}
		}
		r.Metrics["ops_per_s"] = metric{Value: ops, Unit: "op/s"}
		return r
	}
	var out bytes.Buffer
	code, err := compare([]record{mk(1, 100)}, []record{mk(2, 100)}, &out)
	if err != nil || code != compareSkipped || !strings.Contains(out.String(), "SKIPPED") {
		t.Errorf("different core counts: code %d err %v out %q, want skipped", code, err, out.String())
	}
	out.Reset()
	if code, err := compare([]record{mk(2, 100)}, []record{mk(2, 95)}, &out); err != nil || code != comparePass {
		t.Errorf("5%% slower: code %d err %v, want pass\n%s", code, err, out.String())
	}
	out.Reset()
	if code, err := compare([]record{mk(2, 100)}, []record{mk(2, 50)}, &out); err != nil || code != compareRegressed {
		t.Errorf("50%% slower: code %d err %v, want regressed\n%s", code, err, out.String())
	}
}
