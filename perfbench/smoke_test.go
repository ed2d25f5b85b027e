package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the perfbench executable
// when a run starts its set-up processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "setup" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runSmoke runs one workload at its smoke shape and returns the contract
// line and the full record it saved.
func runSmoke(t *testing.T, name string, trace bool, seed string) (result, record) {
	t.Helper()
	dir := t.TempDir()
	args := []string{"--workload", name, "--smoke", "--seed", seed, "--out", dir, "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", name, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rec record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
	}
	return res, rec
}

// TestSmokeEveryWorkload drives every workload path, actor-net over
// loopback TCP included, untraced and traced.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, rec := runSmoke(t, name, trace, "5")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: %+v, violations %v", name, trace, res, rec.Violations)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			sum := rec.Metrics["obs.attributed_s_per_op"].Value + rec.Metrics["obs.unattributed_s_per_op"].Value
			if wall := rec.Metrics["obs.op_wall_s_per_op"].Value; math.Abs(sum-wall) > 1e-9*wall+1e-12 {
				t.Errorf("%s: layers + unattributed = %v, want op wall %v", name, sum, wall)
			}
			if rec.Metrics["obs.trace_overhead_ratio"].Value <= 0 {
				t.Errorf("%s: trace overhead ratio not reported", name)
			}
		}
	}
}

// TestCountersRepeatForSameSeed: the deterministic counters must read the
// same in two runs with the same seed.
func TestCountersRepeatForSameSeed(t *testing.T) {
	for _, name := range workloadNames {
		_, a := runSmoke(t, name, true, "9")
		_, b := runSmoke(t, name, true, "9")
		for _, m := range []string{"rounds_per_op", "frames_per_op", "bytes_per_op", "bgw.fieldops_per_op", "bgw.messages_per_op"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s read %v then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// workloads and metric definitions in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, wl := range bf.Workloads {
		w, err := newWorkload(wl.Name, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if wl.Why != w.why {
			t.Errorf("workload %s: file says %q, program %q", wl.Name, wl.Why, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || math.Abs(m.Bound-d.bound) > 1e-12 {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, m, d)
		}
	}
}
