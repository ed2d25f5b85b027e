package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/randx"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{Runs: 1, RealBGWBudget: 5e6, Seed: 7}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "*"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTableWriteTo(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Runs != 3 || o.RealBGWBudget != 2e8 || o.Seed != 42 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{Runs: 9}.Defaults()
	if o2.Runs != 9 {
		t.Fatal("explicit values must be kept")
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig4", "table1", "table3"} {
		tabs, err := ByID(id, tiny())
		if err != nil || len(tabs) == 0 {
			t.Fatalf("ByID(%q) = %v, %v", id, tabs, err)
		}
	}
	if _, err := ByID("nope", tiny()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestFigure4Shape(t *testing.T) {
	tbl := Figure4(tiny())
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 gamma values", len(tbl.Rows))
	}
	// Both overheads strictly decreasing in gamma.
	prevS, prevN := 1e300, 1e300
	for _, row := range tbl.Rows {
		s := parse(t, row[1])
		n := parse(t, row[4])
		if s >= prevS {
			t.Fatalf("sensitivity overhead not decreasing: %v -> %v", prevS, s)
		}
		if n >= prevN {
			t.Fatalf("noise overhead not decreasing: %v -> %v", prevN, n)
		}
		prevS, prevN = s, n
	}
	// The last noise overhead is small relative to the Gaussian std
	// (the analytic overhead √((¾)²+9d/γ)−¾ is ≈9% of ¾ at γ=65536).
	last := tbl.Rows[len(tbl.Rows)-1]
	if g := parse(t, last[3]); parse(t, last[4]) > 0.15*g {
		t.Fatalf("noise overhead at gamma=65536 is %v vs sigma %v", parse(t, last[4]), g)
	}
}

func TestProfileCurves(t *testing.T) {
	tbl := Profile(tiny())
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	prev := -1.0
	for _, row := range tbl.Rows {
		sk := parse(t, row[1])
		ga := parse(t, row[2])
		// eps decreases as delta grows; Skellam stays within a hair of
		// Gaussian at this mu.
		if prev >= 0 && sk >= prev {
			t.Fatalf("eps should shrink with delta: %v", tbl.Rows)
		}
		prev = sk
		if sk < ga-1e-9 || sk > ga+0.01 {
			t.Fatalf("Skellam %v strays from Gaussian %v", sk, ga)
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 2 {
		t.Fatal("Table1 must list PCA and LR")
	}
	t3 := Table3()
	if len(t3.Rows) != 5 {
		t.Fatal("Table3 must list the five approaches")
	}
	if !strings.Contains(t3.Rows[4][0], "SQM") {
		t.Fatal("Table3 must end with this work")
	}
}

func TestEpochsForMapping(t *testing.T) {
	cases := map[float64]int{0.5: 2, 1: 5, 2: 8, 4: 10, 8: 10}
	for eps, want := range cases {
		if got := epochsFor(eps); got != want {
			t.Fatalf("epochsFor(%v) = %d, want %d", eps, got, want)
		}
	}
}

func TestEstimatorsGrowCorrectly(t *testing.T) {
	// PCA ops grow quadratically in n, linearly in m and P.
	a, _ := estimatePCAOps(100, 10, 4, 1, 4)
	b, _ := estimatePCAOps(100, 20, 4, 1, 4)
	if float64(b) < 3*float64(a) {
		t.Fatalf("PCA ops should grow ~n²: %d -> %d", a, b)
	}
	c, _ := estimateLROps(100, 10, 4, 1, 4)
	d, _ := estimateLROps(200, 10, 4, 1, 4)
	if float64(d) < 1.8*float64(c) {
		t.Fatalf("LR ops should grow ~m: %d -> %d", c, d)
	}
}

// TestEstimatorsMatchMetering pins the hand-written cost model of the
// timing tables to the engine's metering: on each shape the estimated
// field operations of a PCA release, and of LR set-up plus one
// full-batch gradient, equal the FieldOps the monolithic engine counts.
func TestEstimatorsMatchMetering(t *testing.T) {
	for _, sh := range []struct {
		m, n, parties int
		pca, lr       int64
	}{
		{m: 50, n: 4, parties: 4, pca: 4200, lr: 4040},
		{m: 30, n: 6, parties: 5, pca: 8370, lr: 5820},
		{m: 20, n: 3, parties: 3, pca: 936, lr: 1008},
	} {
		threshold := (sh.parties - 1) / 2
		params := core.Params{
			Gamma: 18, Mu: 1e6, NumClients: sh.parties,
			Engine: core.EngineBGW, Parties: sh.parties, Threshold: threshold, Seed: 3,
		}
		est, _ := estimatePCAOps(sh.m, sh.n, sh.parties, threshold, sh.parties)
		_, tr, err := core.Covariance(timingData(sh.m, sh.n, 3), params)
		if err != nil {
			t.Fatal(err)
		}
		if est != sh.pca || tr.Stats.FieldOps != est {
			t.Errorf("PCA m=%d n=%d P=%d: estimated %d, measured %d, want %d",
				sh.m, sh.n, sh.parties, est, tr.Stats.FieldOps, sh.pca)
		}

		est, _ = estimateLROps(sh.m, sh.n, sh.parties, threshold, sh.parties)
		ds, err := dataset.ACSIncomeLike("CA", sh.m, 1, sh.n, 3)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := core.NewLRProtocol(ds.X, ds.Labels, params)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, sh.m)
		for i := range batch {
			batch[i] = i
		}
		_, gtr, err := proto.GradientSum(randx.New(3).GaussianVec(sh.n, 0.2), batch)
		proto.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := proto.SetupStats().FieldOps + gtr.Stats.FieldOps; est != sh.lr || got != est {
			t.Errorf("LR m=%d d=%d P=%d: estimated %d, measured %d (set-up %d), want %d",
				sh.m, sh.n, sh.parties, est, got, proto.SetupStats().FieldOps, sh.lr)
		}
	}
}

func TestPCATimingRealAndExtrapolated(t *testing.T) {
	o := tiny()
	real := pcaTiming(o, 50, 8, 4)
	if real.extrapolated || real.total <= 0 {
		t.Fatalf("small cell should run real BGW: %+v", real)
	}
	// Simulated latency floor: 3 rounds x 100 ms.
	if real.total.Seconds() < 0.3 {
		t.Fatalf("total %v below the 3-round latency floor", real.total)
	}
	o.RealBGWBudget = 1e5
	ex := pcaTiming(o, 50, 32, 4)
	if !ex.extrapolated || ex.total <= 0 {
		t.Fatalf("large cell should extrapolate: %+v", ex)
	}
}

func TestLRTimingExtrapolated(t *testing.T) {
	o := tiny()
	o.RealBGWBudget = 2e4 // force the calibration-and-scale path
	r := lrTiming(o, 60, 40, 4)
	if !r.extrapolated {
		t.Fatal("tiny budget should force extrapolation")
	}
	if r.total <= 0 || r.noise <= 0 || r.noise >= r.total {
		t.Fatalf("implausible extrapolated times: %+v", r)
	}
}

func TestLRTimingRuns(t *testing.T) {
	o := tiny()
	r := lrTiming(o, 40, 8, 4)
	if r.extrapolated || r.total <= 0 || r.noise <= 0 {
		t.Fatalf("LR timing = %+v", r)
	}
	if r.noise >= r.total {
		t.Fatal("noise time must be below total time")
	}
}

// TestLRMeasuredExcludesModeledLatency: the measured column is
// wall-clock only. With a 10 s modeled round the set-up phase alone
// models 10 s, so a measured time folding it in would exceed the
// wall-clock of the whole call.
func TestLRMeasuredExcludesModeledLatency(t *testing.T) {
	o := tiny()
	o.Latency = 10 * time.Second
	start := time.Now()
	r := lrTiming(o, 40, 8, 4)
	wall := time.Since(start)
	if r.extrapolated || r.total <= 0 {
		t.Fatalf("LR timing = %+v", r)
	}
	if r.measured <= 0 || r.measured >= wall {
		t.Fatalf("measured %v not below the call's wall-clock %v", r.measured, wall)
	}
	// Modeled: set-up round + the gradient's 3 rounds at 10 s each.
	if floor := r.measured + 4*o.Latency; r.total < floor {
		t.Fatalf("total %v below measured + 4 modeled rounds (%v)", r.total, floor)
	}
}

func TestTable2ShapeSmall(t *testing.T) {
	tbl := Table2(tiny())
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 PCA + 4 LR", len(tbl.Rows))
	}
	// PCA total time grows with n.
	first := parse(t, tbl.Rows[0][2])
	last := parse(t, tbl.Rows[3][2])
	if last <= first {
		t.Fatalf("PCA time must grow with n: %v -> %v", first, last)
	}
}

func TestTable4And5ShapeSmall(t *testing.T) {
	t4 := Table4(tiny())
	if len(t4.Rows) != 8 {
		t.Fatalf("table4 rows = %d", len(t4.Rows))
	}
	// Noise-injection time flat in m for LR (last four rows).
	first := parse(t, t4.Rows[4][3])
	last := parse(t, t4.Rows[7][3])
	if last > first*2+0.05 {
		t.Fatalf("LR noise time should be flat in m: %v -> %v", first, last)
	}
	t5 := Table5(tiny())
	if len(t5.Rows) != 6 {
		t.Fatalf("table5 rows = %d", len(t5.Rows))
	}
	// PCA total grows with P.
	if parse(t, t5.Rows[2][2]) < parse(t, t5.Rows[0][2]) {
		t.Fatalf("PCA time should grow with P: %v", t5.Rows)
	}
}

func TestFastAblations(t *testing.T) {
	o := tiny()
	fused := AblationFusedGates(o)
	if len(fused.Rows) != 2 || fused.Rows[0][3] != "yes" {
		t.Fatalf("fused ablation = %+v", fused.Rows)
	}
	// Fusion must dominate on messages.
	if parse(t, fused.Rows[0][1]) >= parse(t, fused.Rows[1][1]) {
		t.Fatal("fused gate should use fewer messages")
	}
	round := AblationRounding(o)
	for _, row := range round.Rows {
		if parse(t, row[1]) >= parse(t, row[2]) {
			t.Fatalf("stochastic bias should undercut nearest at gamma=%s: %v", row[0], row)
		}
	}
	noise := AblationSkellamVsGaussian(o)
	prev := 1e300
	for _, row := range noise.Rows {
		premium := parse(t, row[3])
		if premium < 0 || premium >= prev {
			t.Fatalf("Skellam premium must shrink with mu: %v", noise.Rows)
		}
		prev = premium
	}
	engines := AblationMPCEngines(o)
	for _, row := range engines.Rows {
		if row[len(row)-1] != "exact" {
			t.Fatalf("engine ablation result not exact: %v", row)
		}
	}
	// The BGW counters are fixed by the circuits' shapes: pin them.
	transport := AblationNoiseTransport(o)
	for _, c := range []struct {
		tbl        *Table
		row, col   int
		want       string
		row0, col0 string
	}{
		{fused, 0, 1, "504", "fused (SQM)", "messages"},
		{fused, 0, 2, "3948", "fused (SQM)", "field ops"},
		{fused, 1, 1, "10332", "per-mult", "messages"},
		{fused, 1, 2, "23604", "per-mult", "field ops"},
		{engines, 0, 1, "24", "BGW (fused gate)", "online messages"},
		{engines, 0, 2, "828", "BGW (fused gate)", "online field ops"},
		{transport, 0, 1, "30000", "BGW inputs", "messages"},
		{transport, 0, 2, "240000", "BGW inputs", "bytes"},
	} {
		if got := c.tbl.Rows[c.row][c.col]; c.tbl.Rows[c.row][0] != c.row0 || c.tbl.Header[c.col] != c.col0 || got != c.want {
			t.Errorf("%s %s/%s = %s (row %q, column %q), want %s",
				c.tbl.ID, c.row0, c.col0, got, c.tbl.Rows[c.row][0], c.tbl.Header[c.col], c.want)
		}
	}
	if transport.Rows[0][3] != "yes" {
		t.Errorf("BGW noise transport aggregate does not match: %v", transport.Rows[0])
	}
	sparse := AblationSparseGram(o)
	if parse(t, sparse.Rows[1][2]) != 0 {
		t.Fatalf("sparse Gram must match dense exactly: %v", sparse.Rows)
	}
	coef := AblationCoefficientScaling(o)
	for _, row := range coef.Rows {
		if parse(t, row[3]) <= 1 {
			t.Fatalf("per-degree scheme should need more noise: %v", row)
		}
	}
}

func TestFigure2SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tiny()
	tabs := Figure2(o)
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want one per dataset", len(tabs))
	}
	for _, tbl := range tabs {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			exact := parse(t, row[2])
			central := parse(t, row[3])
			local := parse(t, row[4])
			if central > exact+1e-6 || local > exact+1e-6 {
				t.Fatalf("%s: no DP method may beat exact: %v", tbl.ID, row)
			}
			// The largest-gamma SQM column should not lose badly to central.
			sqm := parse(t, row[len(row)-1])
			if sqm < 0.5*central {
				t.Fatalf("%s: SQM %v collapsed vs central %v (row %v)", tbl.ID, sqm, central, row)
			}
		}
	}
}

func TestFigure3TinyShape(t *testing.T) {
	o := tiny()
	o.TinyLR = true
	tbl := Figure3(o)
	if len(tbl.Rows) != 4*5 {
		t.Fatalf("rows = %d, want 4 states x 5 eps", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		nonpriv := parse(t, row[2])
		dpsgd := parse(t, row[3])
		sqmBig := parse(t, row[len(row)-1])
		if nonpriv < 0.6 {
			t.Fatalf("non-private accuracy %v too low on %s", nonpriv, row[0])
		}
		for _, v := range []float64{dpsgd, sqmBig} {
			if v < 0.3 || v > 1 {
				t.Fatalf("implausible accuracy %v in %v", v, row)
			}
		}
	}
}

func TestFigure5SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := Figure5(tiny())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if gap := parse(t, row[3]); gap > 0.12 {
			t.Fatalf("Approx-Poly gap %v too large at eps=%s", gap, row[0])
		}
	}
}
