package main

// metricDef names one reported metric. bound is the share of the base
// median by which an end-to-end metric may worsen before a comparison
// calls it a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system sees, measured untraced. The
// plan counters are deterministic, so their bounds are tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"rounds_per_op", "rounds", "lower", 0.02},
	{"frames_per_op", "frames", "lower", 0.02},
	{"bytes_per_op", "B", "lower", 0.02},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// perLayer splits an op across the repository's modules, from a traced
// run. Times whose name ends in _per_op are means over traced ops.
var perLayer = []metricDef{
	{"dp.calibrate_s", "s", "lower", 0},
	{"quant.matrix_s", "s", "lower", 0},
	{"randx.noise_s_per_op", "s", "lower", 0},
	{"randx.skellam_draws_per_op", "count", "lower", 0},
	{"circuit.exec_s_per_op", "s", "lower", 0},
	{"circuit.local_s_per_op", "s", "lower", 0},
	{"circuit.level_s_per_op", "s", "lower", 0},
	{"circuit.open_s_per_op", "s", "lower", 0},
	{"bgw.fieldops_per_op", "count", "lower", 0},
	{"bgw.messages_per_op", "count", "lower", 0},
	{"bgw.pool_reused_per_op", "count", "higher", 0},
	{"transport.send_recv_p50_us", "us", "lower", 0},
	{"transport.frames_per_op", "frames", "lower", 0},
	{"transport.bytes_per_op", "B", "lower", 0},
	{"transport.recv_timeouts", "count", "lower", 0},
	{"core.compute_s_per_op", "s", "lower", 0},
	{"core.self_s_per_op", "s", "lower", 0},
	{"core.setup_share_s", "s", "lower", 0},
	{"core.op_tail_ms", "ms", "lower", 0},
	{"core.op_tail_pct", "%", "higher", 0},
	{"core.op_samples", "count", "higher", 0},
	{"pca.post_s_per_op", "s", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_pause_s_per_op", "s", "lower", 0},
	{"obs.op_wall_s_per_op", "s", "lower", 0},
	{"obs.unattributed_s_per_op", "s", "lower", 0},
	{"obs.spans_per_op", "count", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
}

// extra are recorded and printed but belong to neither contract set:
// fail_ratio reads 0 on every passing run, the modeled WAN time is
// derived, not measured, and the attributed sum (the disjoint layer
// times of a traced op) is there to check against the op wall-clock.
var extra = []metricDef{
	{"fail_ratio", "ratio", "lower", 0},
	{"modeled_wan_s_per_op", "s", "lower", 0},
	{"obs.attributed_s_per_op", "s", "lower", 0},
}

// unitOf returns a metric's unit from the definitions.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, extra} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
