package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Exit codes of the compare mode. A comparison across machines with
// different core counts is skipped, and says so with its own code
// rather than passing.
const (
	comparePass      = 0
	compareRegressed = 1
	compareUsage     = 2
	compareSkipped   = 3
)

// compareMain compares two result files (results.jsonl from runs of the
// base and the head) on the end-to-end metrics: per workload, the head's
// median against the base's median, within each metric's bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base results.jsonl> <head results.jsonl>")
		return compareUsage
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return compareUsage
		}
		sides[i] = recs
	}
	code, err := compare(sides[0], sides[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return compareUsage
	}
	return code
}

// loadRecords reads the untraced, full-size records of a results file.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && !r.Smoke {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced full-size records", path)
	}
	return out, nil
}

// coreCounts returns the one (num_cpu, GOMAXPROCS) pair of a side.
func coreCounts(recs []record) (machine, error) {
	m := recs[0].Machine
	for _, r := range recs[1:] {
		if r.Machine.NumCPU != m.NumCPU || r.Machine.GOMAXPROCS != m.GOMAXPROCS {
			return m, fmt.Errorf("records mix core counts (%d/%d and %d/%d)",
				m.NumCPU, m.GOMAXPROCS, r.Machine.NumCPU, r.Machine.GOMAXPROCS)
		}
	}
	return m, nil
}

// worsening is the share of the base by which head is worse (negative
// when better).
func worsening(d metricDef, base, head float64) float64 {
	if base <= 0 {
		if head <= base {
			return 0
		}
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (base - head) / base
	}
	return (head - base) / base
}

func compare(base, head []record, w io.Writer) (int, error) {
	bm, err := coreCounts(base)
	if err != nil {
		return compareUsage, fmt.Errorf("base: %w", err)
	}
	hm, err := coreCounts(head)
	if err != nil {
		return compareUsage, fmt.Errorf("head: %w", err)
	}
	if bm.NumCPU != hm.NumCPU || bm.GOMAXPROCS != hm.GOMAXPROCS {
		fmt.Fprintf(w, "SKIPPED: base measured with num_cpu %d GOMAXPROCS %d, head with num_cpu %d GOMAXPROCS %d; timings are not comparable\n",
			bm.NumCPU, bm.GOMAXPROCS, hm.NumCPU, hm.GOMAXPROCS)
		return compareSkipped, nil
	}
	group := func(recs []record) map[string][]record {
		g := map[string][]record{}
		for _, r := range recs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	bg, hg := group(base), group(head)
	var names []string
	for name := range bg {
		if _, ok := hg[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return compareUsage, fmt.Errorf("no workload measured on both sides")
	}
	sort.Strings(names)
	code := comparePass
	for _, name := range names {
		for _, r := range hg[name] {
			if !r.Correct {
				fmt.Fprintf(w, "%-16s INCORRECT head run (seed %d): %v\n", name, r.Seed, r.Violations)
				code = compareRegressed
			}
		}
		for _, d := range endToEnd {
			b, h := medianOf(bg[name], d.name), medianOf(hg[name], d.name)
			worse := worsening(d, b, h)
			status := "ok"
			if worse > d.bound {
				status = "REGRESSED"
				code = compareRegressed
			}
			fmt.Fprintf(w, "%-16s %-16s base %-12.6g head %-12.6g %-6s %+7.2f%% worse (bound %.0f%%) %s\n",
				name, d.name, b, h, d.unit, 100*worse, 100*d.bound, status)
		}
	}
	return code, nil
}

func medianOf(recs []record, name string) float64 {
	v := make([]float64, 0, len(recs))
	for _, r := range recs {
		v = append(v, r.Metrics[name].Value)
	}
	return median(v)
}
