package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/field"
	"sqm/internal/randx"
)

// The kernels experiment measures the two layers Issue 10 parallelized:
// the branchless field vector kernels against the scalar helpers they
// replaced, and the level executor's worker pool on the lr3 cube
// circuit against its own serial path. Every parallel execution is
// differentially checked against the serial openings before its
// throughput is reported — a faster wrong answer fails the run.

// kernelVecN is the vector length of the micro-benchmarks: large enough
// to amortize call overhead, small enough to stay in cache (the hot
// path's share slabs are this shape).
const kernelVecN = 4096

// KernelBaseline is the machine-readable record sqmbench -baseline
// writes and compares (BENCH_10.json). Throughput is keyed by benchmark
// id; comparisons are only meaningful on a machine with the same core
// count, so the shape fields are recorded alongside.
type KernelBaseline struct {
	GeneratedAt string             `json:"generated_at"`
	NumCPU      int                `json:"num_cpu"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Throughput  map[string]float64 `json:"throughput"` // id -> ops/s
}

// measureOps times fn (which performs ops primitive operations per
// call), repeating until the sample is long enough to trust, and
// returns the best ops/s over o.Runs samples — best-of, not mean,
// because scheduling noise only ever slows a run down.
func measureOps(o Options, ops int64, fn func()) float64 {
	const minSample = 10 * time.Millisecond
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start); d >= minSample {
			break
		}
		iters *= 4
	}
	best := 0.0
	for r := 0; r < o.Runs; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(start)
		if rate := float64(ops) * float64(iters) / d.Seconds(); rate > best {
			best = rate
		}
	}
	return best
}

// kernelVecs builds deterministic operand vectors spanning the field.
func kernelVecs(seed uint64) (a, b, dst []field.Elem) {
	rng := randx.New(seed)
	a = make([]field.Elem, kernelVecN)
	b = make([]field.Elem, kernelVecN)
	dst = make([]field.Elem, kernelVecN)
	for i := range a {
		a[i], b[i] = field.Rand(rng), field.Rand(rng)
	}
	return a, b, dst
}

// Kernels runs the experiment and returns the printable table; the
// metrics map carries the same results keyed for baseline comparison.
func Kernels(o Options) (*Table, map[string]float64) {
	o = o.Defaults()
	metrics := map[string]float64{}
	tbl := &Table{
		ID:     "kernels",
		Title:  "batched field kernels and parallel level execution (Issue 10 hot path)",
		Header: []string{"benchmark", "n", "workers", "throughput", "unit", "speedup", "outputs"},
		Notes: []string{
			fmt.Sprintf("num_cpu=%d gomaxprocs=%d; worker speedups need that many physical cores", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
			"every parallel execution is checked bit-identical against the serial openings before timing counts",
		},
	}

	row := func(id, name, n, workers string, rate, base float64, unit, outputs string) {
		metrics[id] = rate
		speedup := "1.00x"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", rate/base)
		}
		tbl.Rows = append(tbl.Rows, []string{name, n, workers, fmt.Sprintf("%.1f", rate/1e6), unit, speedup, outputs})
	}

	// Layer 1: field vector kernels vs the scalar helpers, same work.
	a, b, dst := kernelVecs(o.Seed)
	nStr := fmt.Sprint(kernelVecN)

	addScalar := measureOps(o, kernelVecN, func() {
		for i := 0; i < kernelVecN; i++ {
			dst[i] = field.Add(a[i], b[i])
		}
	})
	row("field.add.scalar", "field.Add loop", nStr, "-", addScalar, 0, "Melem/s", "-")
	addVec := measureOps(o, kernelVecN, func() { field.AddVec(dst, a, b) })
	row("field.addvec", "field.AddVec", nStr, "-", addVec, addScalar, "Melem/s", "-")

	mulScalar := measureOps(o, kernelVecN, func() {
		for i := 0; i < kernelVecN; i++ {
			dst[i] = field.Mul(a[i], b[i])
		}
	})
	row("field.mul.scalar", "field.Mul loop", nStr, "-", mulScalar, 0, "Melem/s", "-")
	mulVec := measureOps(o, kernelVecN, func() { field.MulVec(dst, a, b) })
	row("field.mulvec", "field.MulVec", nStr, "-", mulVec, mulScalar, "Melem/s", "-")

	dotScalar := measureOps(o, kernelVecN, func() {
		acc := field.Elem(0)
		for i := 0; i < kernelVecN; i++ {
			acc = field.Add(acc, field.Mul(a[i], b[i]))
		}
		dst[0] = acc
	})
	row("field.dot.scalar", "field.Mul+Add dot", nStr, "-", dotScalar, 0, "Melem/s", "-")
	dotAcc := measureOps(o, kernelVecN, func() { dst[0] = field.DotAcc(0, a, b) })
	row("field.dotacc", "field.DotAcc", nStr, "-", dotAcc, dotScalar, "Melem/s", "-")

	// Layer 2: lr3 level execution across worker-pool sizes on the
	// monolithic engine — pure local arithmetic, no transport noise.
	const parties, d, B = 4, 3, 32
	plan := cubePlan(parties, d, B, int64(o.Seed))
	gates := int64(plan.MulGates())
	exec := func(workers int) ([]int64, error) {
		eng, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: o.Seed ^ 0xbe, Workers: workers})
		if err != nil {
			return nil, err
		}
		res, err := plan.Execute(eng, circuit.Bindings{})
		if err != nil {
			return nil, err
		}
		outs := make([]int64, plan.Opens())
		for i := range outs {
			outs[i] = res.Opened(i)
		}
		return outs, nil
	}

	serialOut, err := exec(1)
	if err != nil {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("lr3 serial execution failed: %v", err))
		return tbl, metrics
	}
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		sweep = append(sweep, n)
	}
	var serialRate float64
	for _, w := range sweep {
		outs, err := exec(w)
		if err != nil {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("lr3 w=%d execution failed: %v", w, err))
			continue
		}
		match := "identical"
		for i := range serialOut {
			if outs[i] != serialOut[i] {
				match = "MISMATCH"
			}
		}
		var execErr error
		rate := measureOps(o, gates, func() {
			if _, err := exec(w); err != nil && execErr == nil {
				execErr = err
			}
		})
		if execErr != nil {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("lr3 w=%d timing failed: %v", w, execErr))
			continue
		}
		if w == 1 {
			serialRate = rate
		}
		row(fmt.Sprintf("lr3.exec.w%d", w), "lr3 level exec", fmt.Sprintf("B=%d", B),
			fmt.Sprint(w), rate, serialRate, "Mgate/s", match)
	}
	return tbl, metrics
}

// LoadKernelBaseline reads a BENCH_10.json written by WriteKernelBaseline.
func LoadKernelBaseline(path string) (*KernelBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b KernelBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	return &b, nil
}

// WriteKernelBaseline records the metrics of one kernels run.
func WriteKernelBaseline(path string, metrics map[string]float64) error {
	b := KernelBaseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Throughput:  metrics,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareKernelBaseline checks the current metrics against a recorded
// baseline: any benchmark slower than (1 - tolerance) × baseline is a
// regression. Benchmarks present on only one side are reported but not
// failed (the suite may have grown). A baseline from a machine with a
// different core count cannot gate anything — it is reported as skipped.
func CompareKernelBaseline(base *KernelBaseline, metrics map[string]float64, tolerance float64) (regressions, notes []string) {
	if base.NumCPU != runtime.NumCPU() {
		return nil, []string{fmt.Sprintf("baseline recorded on %d cores, this machine has %d: comparison skipped", base.NumCPU, runtime.NumCPU())}
	}
	for id, want := range base.Throughput {
		got, ok := metrics[id]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in this run", id))
			continue
		}
		if got < want*(1-tolerance) {
			regressions = append(regressions, fmt.Sprintf("%s: %.3g ops/s, baseline %.3g (-%.0f%%)",
				id, got, want, 100*(1-got/want)))
		}
	}
	for id := range metrics {
		if _, ok := base.Throughput[id]; !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark, not in baseline", id))
		}
	}
	return regressions, notes
}
