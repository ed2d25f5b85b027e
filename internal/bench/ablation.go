package bench

import (
	"fmt"
	"math"

	"sqm/internal/beaver"
	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/dataset"
	"sqm/internal/dp"
	"sqm/internal/field"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/quant"
	"sqm/internal/randx"
	"sqm/internal/secagg"
	"time"
)

// Ablations runs the four design-decision studies called out in
// DESIGN.md. They are not paper figures; they quantify why SQM is built
// the way it is.
func Ablations(o Options) []*Table {
	o = o.Defaults()
	return []*Table{
		AblationCoefficientScaling(o),
		AblationFusedGates(o),
		AblationRounding(o),
		AblationSkellamVsGaussian(o),
		AblationTaylorOrder(o),
		AblationMPCEngines(o),
		AblationSparseGram(o),
		AblationNoiseTransport(o),
	}
}

// AblationNoiseTransport compares two ways of aggregating the clients'
// Skellam shares: through BGW inputs (as the mechanism does when it is
// already inside the MPC) versus the pairwise-mask secure aggregation
// of the paper's reference [45] — the noise sum is linear, so the cheap
// transport suffices and the results agree exactly.
func AblationNoiseTransport(o Options) *Table {
	const (
		clients = 6
		length  = 500
		mu      = 1000.0
	)
	tbl := &Table{
		ID:     "abl-transport",
		Title:  fmt.Sprintf("Noise aggregation transports: BGW inputs vs pairwise-mask secagg (%d clients, %d coords)", clients, length),
		Header: []string{"transport", "messages", "bytes", "aggregate matches"},
	}
	// Identical per-client noise draws for both transports.
	draw := func() [][]int64 {
		root := randx.New(o.Seed + 99)
		out := make([][]int64, clients)
		for j := range out {
			out[j] = root.Fork().SkellamVec(length, mu/clients)
		}
		return out
	}
	want := make([]int64, length)
	for _, shares := range draw() {
		for k, v := range shares {
			want[k] += v
		}
	}

	// BGW transport.
	eng, err := bgw.NewEngine(bgw.Config{Parties: clients, Seed: o.Seed})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	b := circuit.NewBuilder(clients, 0)
	var acc bgw.Vec
	for j, shares := range draw() {
		v := b.InputVec(j, shares)
		if acc == nil {
			acc = v
		} else {
			acc = b.AddVec(acc, v)
		}
	}
	b.OpenVecIdx(acc)
	res, err := b.MustCompile().Execute(eng, circuit.Bindings{})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	bgwMatch := equalInt64(res.OpenedVec(0), want)
	st := eng.Stats()
	tbl.Rows = append(tbl.Rows, []string{"BGW inputs", fmt.Sprint(st.Messages), fmt.Sprint(st.Bytes), bgwMatch})

	// Secagg transport.
	grp, err := secagg.NewGroup(clients, length, o.Seed)
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	masked := make([][]field.Elem, clients)
	for j, shares := range draw() {
		masked[j], err = grp.Mask(j, 0, shares)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			return tbl
		}
	}
	sa, err := grp.Aggregate(masked)
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	saMatch := equalInt64(sa, want)
	tbl.Rows = append(tbl.Rows, []string{
		"secagg masks", fmt.Sprint(grp.Messages()), fmt.Sprint(grp.Messages() * int64(length) * 8), saMatch,
	})
	tbl.Notes = append(tbl.Notes,
		"secagg sends one masked vector per client to the server; BGW sends one share vector per client pair — the linear noise sum does not need the heavier machinery")
	return tbl
}

func equalInt64(a, b []int64) string {
	if len(a) != len(b) {
		return "NO"
	}
	for i := range a {
		if a[i] != b[i] {
			return "NO"
		}
	}
	return "yes"
}

// AblationSparseGram measures the CSR Gram path against the dense one
// on a CiteSeer-like sparse shape: the covariance cost drops from
// O(m·n²) to O(Σ nnz²), which is what makes the full-size sparse
// datasets tractable.
func AblationSparseGram(o Options) *Table {
	m, n := 1000, 600
	tbl := &Table{
		ID:     "abl-sparse",
		Title:  fmt.Sprintf("Dense vs CSR Gram on CiteSeer-like data (m=%d, n=%d)", m, n),
		Header: []string{"path", "time (ms)", "max |diff|"},
	}
	x := dataset.CiteSeerLike(m, n, o.Seed).X
	s := linalg.SparseFromDense(x, 0)

	t0 := time.Now()
	dense := x.Gram()
	denseMS := time.Since(t0).Seconds() * 1000

	t1 := time.Now()
	sparse := s.Gram()
	sparseMS := time.Since(t1).Seconds() * 1000

	diff := sparse.Sub(dense).MaxAbs()
	tbl.Rows = append(tbl.Rows,
		[]string{"dense", fmt.Sprintf("%.2f", denseMS), "0"},
		[]string{"CSR", fmt.Sprintf("%.2f", sparseMS), fe(diff)},
	)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("nnz density %.2f%%; identical results, ~%.0fx faster on this shape",
			100*float64(s.NNZ())/float64(m*n), denseMS/math.Max(sparseMS, 1e-6)))
	return tbl
}

// AblationMPCEngines compares BGW against the additive-sharing engine
// with Beaver triples on the same noisy inner-product workload: SQM is
// MPC-agnostic (§II), and the offline/online split moves almost all
// multiplication cost out of the latency-critical path.
func AblationMPCEngines(o Options) *Table {
	const (
		parties = 4
		length  = 200
	)
	tbl := &Table{
		ID:     "abl-engine",
		Title:  fmt.Sprintf("BGW vs additive+Beaver on a %d-element noisy inner product (P=%d)", length, parties),
		Header: []string{"engine", "online messages", "online field ops", "offline messages", "result"},
	}
	g := randx.New(o.Seed)
	xs := make([]int64, length)
	ys := make([]int64, length)
	for i := range xs {
		xs[i] = int64(g.IntN(1000)) - 500
		ys[i] = int64(g.IntN(1000)) - 500
	}
	var want int64
	for i := range xs {
		want += xs[i] * ys[i]
	}

	// BGW: fused inner product, one resharing.
	bgwEng, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: o.Seed})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	xy, err := shareCols(bgwEng, [][]int64{xs, ys})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	bgwEng.ResetStats()
	b := circuit.NewBuilder(parties, 0)
	b.OpenIdx(b.Dot(b.ExtVec(length), b.ExtVec(length)))
	res, err := b.MustCompile().Execute(bgwEng, circuit.Bindings{ExtVecs: xy})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	bgwGot := res.Opened(0)
	bst := bgwEng.Stats()
	tbl.Rows = append(tbl.Rows, []string{
		"BGW (fused gate)", fmt.Sprint(bst.Messages), fmt.Sprint(bst.FieldOps), "0", verdict(bgwGot, want),
	})

	// Beaver: one triple per product, offline from the BGW source.
	offline, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: o.Seed ^ 1})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	bv, err := beaver.NewEngine(beaver.Config{Parties: parties, Seed: o.Seed, Source: beaver.NewBGWSource(offline, o.Seed)})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	if err := bv.Precompute(length); err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	bvXs := make([]*beaver.Share, length)
	bvYs := make([]*beaver.Share, length)
	for i := range xs {
		bvXs[i] = bv.Input(0, xs[i])
		bvYs[i] = bv.Input(1, ys[i])
	}
	bv.ResetStats()
	acc := bv.Zero()
	for i := range xs {
		prod, err := bv.Mul(bvXs[i], bvYs[i])
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			return tbl
		}
		acc = bv.Add(acc, prod)
	}
	beaverGot := bv.Open(acc)
	vst := bv.Stats()
	tbl.Rows = append(tbl.Rows, []string{
		"additive + Beaver", fmt.Sprint(vst.Messages), fmt.Sprint(vst.FieldOps),
		fmt.Sprint(offline.Stats().Messages), verdict(beaverGot, want),
	})
	tbl.Notes = append(tbl.Notes,
		"BGW's fused gate wins when products can batch into one resharing; Beaver wins per isolated multiplication once triples are precomputed offline")
	return tbl
}

// shareCols shares column j from party j mod P in a one-round setup
// plan and returns the engine's handles to the shared columns, to bind
// as the ExtVecs of a measured plan so that its counters exclude the
// input round.
func shareCols(eng bgw.Evaluator, cols [][]int64) ([]bgw.Vec, error) {
	b := circuit.NewBuilder(eng.Parties(), eng.Threshold())
	hs := make([]bgw.Vec, len(cols))
	for j, c := range cols {
		hs[j] = b.InputVec(j%eng.Parties(), c)
	}
	res, err := b.MustCompile().Execute(eng, circuit.Bindings{})
	if err != nil {
		return nil, err
	}
	out := make([]bgw.Vec, len(hs))
	for j, h := range hs {
		out[j] = res.VecOf(h)
	}
	return out, nil
}

func verdict(got, want int64) string {
	if got == want {
		return "exact"
	}
	return fmt.Sprintf("WRONG (%d != %d)", got, want)
}

// AblationTaylorOrder compares the order-1 and order-3 Taylor sigmoid
// trainers at equal privacy budgets (the §V-C extension): order 3
// approximates the sigmoid better but pays a γ⁵ amplification, so its
// feasible γ is smaller and the conservative degree-4 sensitivity costs
// noise — empirically order 1 is the better trade, which is the paper's
// choice.
func AblationTaylorOrder(o Options) *Table {
	mTrain, mTest, d, q := lrShape(Options{}) // always the small shape
	tbl := &Table{
		ID:     "abl-taylor",
		Title:  fmt.Sprintf("Taylor order 1 vs 3 for SQM logistic regression (m=%d, d=%d, %d runs)", mTrain, d, o.Runs),
		Header: []string{"eps", "order 1 (g=2^13)", "order 3 (g=2^8)", "non-private"},
	}
	ds, err := dataset.ACSIncomeLike("CA", mTrain, mTest, d, o.Seed)
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	nonpriv := logreg.Accuracy(logreg.TrainNonPrivate(ds.X, ds.Labels, o.Seed), ds.TestX, ds.TestLabels)
	for _, eps := range []float64{1, 4, 8} {
		cfg := logreg.Config{Eps: eps, Delta: 1e-5, Epochs: epochsFor(eps), SampleRate: q}
		o1 := avgUtility(o, func(seed uint64) (float64, error) {
			c := cfg
			c.Seed = seed
			c.Gamma = 1 << 13
			m, err := logreg.TrainSQM(ds.X, ds.Labels, c)
			if err != nil {
				return 0, err
			}
			return logreg.Accuracy(m, ds.TestX, ds.TestLabels), nil
		})
		o3 := avgUtility(o, func(seed uint64) (float64, error) {
			c := cfg
			c.Seed = seed
			c.Gamma = 1 << 8
			m, err := logreg.TrainSQMOrder3(ds.X, ds.Labels, c)
			if err != nil {
				return 0, err
			}
			return logreg.Accuracy(m, ds.TestX, ds.TestLabels), nil
		})
		tbl.Rows = append(tbl.Rows, []string{fe(eps), f3(o1), f3(o3), f3(nonpriv)})
	}
	tbl.Notes = append(tbl.Notes, "order 3's tighter sigmoid fit does not pay for its smaller feasible gamma and degree-4 sensitivity")
	return tbl
}

// AblationCoefficientScaling compares Algorithm 3's uniform-γ^{λ+1}
// coefficient pre-processing against the naive alternative the paper
// rejects (§IV-B): evaluating and perturbing each degree class
// separately, which splits the privacy budget and adds the per-class
// worst cases. Reported: the per-coordinate noise std in unscaled units
// for the LR gradient polynomial.
func AblationCoefficientScaling(o Options) *Table {
	const (
		d     = 200
		eps   = 1.0
		delta = 1e-5
	)
	tbl := &Table{
		ID:     "abl-coef",
		Title:  "Coefficient pre-processing (Algorithm 3) vs per-degree release (LR gradient, d=200, eps=1)",
		Header: []string{"gamma", "joint noise std", "per-degree noise std", "ratio"},
	}
	for _, gamma := range []float64{256, 1024, 4096} {
		// Joint: Lemma 7 sensitivities, single release at full budget.
		d2, d1 := logreg.Sensitivities(gamma, d)
		muJoint, err := dp.CalibrateSkellamMu(eps, delta, d1, d2, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		joint := math.Sqrt(2*muJoint) / math.Pow(gamma, 3)

		// Naive: the degree-1 class (½·x) and degree-2 class
		// (⟨w/4,x⟩x − y·x) are computed at their own scales (γ² and γ³)
		// and perturbed separately at ε/2 each.
		g2, g3 := gamma*gamma, gamma*gamma*gamma
		d2a := 0.5*g2 + 2*gamma // ½·x scaled by γ², + rounding slack
		d1a := math.Min(d2a*d2a, math.Sqrt(d)*d2a)
		muA, err := dp.CalibrateSkellamMu(eps/2, delta/2, d1a, d2a, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		d2b := 1.25*g3 + math.Sqrt(9*math.Pow(gamma, 5)*d) // |⟨w/4,x⟩| + |y| ≤ 1.25
		d1b := math.Min(d2b*d2b, math.Sqrt(d)*d2b)
		muB, err := dp.CalibrateSkellamMu(eps/2, delta/2, d1b, d2b, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		// Total unscaled noise variance = sum of the rescaled parts.
		naive := math.Sqrt(2*muA/(g2*g2) + 2*muB/(g3*g3))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%g", gamma), fe(joint), fe(naive), f3(naive / joint),
		})
	}
	tbl.Notes = append(tbl.Notes, "ratio > 1 means the rejected per-degree scheme needs more noise at equal (eps, delta)")
	return tbl
}

// AblationFusedGates compares the fused inner-product gate (one
// resharing per Gram entry) against per-multiplication resharing on the
// same covariance computation, counting messages and rounds.
func AblationFusedGates(o Options) *Table {
	const (
		m, n    = 40, 6
		parties = 4
	)
	tbl := &Table{
		ID:     "abl-fused",
		Title:  fmt.Sprintf("Fused inner-product gates vs per-multiplication resharing (Gram, m=%d, n=%d, P=%d)", m, n, parties),
		Header: []string{"variant", "messages", "field ops", "result matches"},
	}
	x := dataset.KDDCupLike(m, n, o.Seed).X
	qd := quant.Matrix(x, 64, randx.New(o.Seed), nil)

	data := make([][]int64, n)
	for j := range data {
		data[j] = qd.Col(j)
	}
	run := func(fused bool) (int64, int64, []int64) {
		eng, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: o.Seed})
		if err != nil {
			return 0, 0, nil
		}
		cols, err := shareCols(eng, data)
		if err != nil {
			return 0, 0, nil
		}
		eng.ResetStats()
		b := circuit.NewBuilder(parties, 0)
		ext := make([]bgw.Vec, n)
		for j := range ext {
			ext[j] = b.ExtVec(m)
		}
		for j := 0; j < n; j++ {
			for k := j; k < n; k++ {
				if fused {
					b.OpenIdx(b.Dot(ext[j], ext[k]))
					continue
				}
				acc := b.Zero()
				for i := 0; i < m; i++ {
					acc = b.Add(acc, b.Mul(b.At(ext[j], i), b.At(ext[k], i)))
				}
				b.OpenIdx(acc)
			}
		}
		plan := b.MustCompile()
		res, err := plan.Execute(eng, circuit.Bindings{ExtVecs: cols})
		if err != nil {
			return 0, 0, nil
		}
		out := make([]int64, plan.Opens())
		for i := range out {
			out[i] = res.Opened(i)
		}
		st := eng.Stats()
		return st.Messages, st.FieldOps, out
	}
	fm, fo, fr := run(true)
	nm, no, nr := run(false)
	match := "yes"
	for i := range fr {
		if fr[i] != nr[i] {
			match = "NO"
		}
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"fused (SQM)", fmt.Sprint(fm), fmt.Sprint(fo), match},
		[]string{"per-mult", fmt.Sprint(nm), fmt.Sprint(no), match},
	)
	tbl.Notes = append(tbl.Notes, fmt.Sprintf("fusion reduces messages by %.0fx on this shape", float64(nm)/float64(fm)))
	return tbl
}

// AblationRounding compares unbiased stochastic rounding (Algorithm 2)
// against nearest rounding on the covariance estimate at coarse γ:
// nearest rounding leaves a systematic bias that no amount of averaging
// removes.
func AblationRounding(o Options) *Table {
	const (
		m, n   = 400, 8
		trials = 40
	)
	tbl := &Table{
		ID:     "abl-round",
		Title:  fmt.Sprintf("Stochastic vs nearest rounding: covariance bias over %d trials (m=%d, n=%d)", trials, m, n),
		Header: []string{"gamma", "stochastic |bias|", "nearest |bias|"},
	}
	x := dataset.KDDCupLike(m, n, o.Seed).X
	truth := x.Gram()
	for _, gamma := range []float64{2, 4, 8} {
		// Average the signed error of an off-diagonal entry, where the
		// rounding errors of the two columns are independent and
		// stochastic rounding is exactly unbiased. (Diagonal entries
		// additionally carry the rounding *variance*, for both modes.)
		var stoch, nearest float64
		for trial := 0; trial < trials; trial++ {
			g := randx.New(o.Seed + uint64(trial))
			qs := quant.Matrix(x, gamma, g, nil)
			stochErr := qs.Float(gamma).Gram().Sub(truth)
			stoch += stochErr.At(0, 1) / trials

			qn := quant.NewIntMatrix(m, n)
			for i, v := range x.Data {
				qn.Data[i] = quant.Nearest(v, gamma)
			}
			nearErr := qn.Float(gamma).Gram().Sub(truth)
			nearest += nearErr.At(0, 1) / trials
		}
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%g", gamma), fe(math.Abs(stoch)), fe(math.Abs(nearest))})
	}
	tbl.Notes = append(tbl.Notes,
		"stochastic rounding is unbiased up to the (small) E[e^2] diagonal term; nearest rounding's bias is deterministic and survives averaging")
	return tbl
}

// AblationSkellamVsGaussian compares the RDP cost of Skellam noise
// against continuous Gaussian noise of identical variance (σ² = 2μ):
// Skellam pays a vanishing premium as μ grows — the reason large γ
// (hence large μ) recovers centralized utility.
func AblationSkellamVsGaussian(o Options) *Table {
	const (
		delta  = 1e-5
		delta2 = 100.0
	)
	tbl := &Table{
		ID:     "abl-noise",
		Title:  "Skellam vs equal-variance Gaussian: converted eps at delta=1e-5 (Delta2=100)",
		Header: []string{"mu", "eps(Skellam)", "eps(Gaussian)", "premium"},
	}
	for _, mu := range []float64{1e4, 1e5, 1e6, 1e8} {
		sk, _ := dp.SkellamEpsilon(delta2, delta2, mu, 1, 1, delta, dp.DefaultMaxAlpha)
		ga, _ := dp.GaussianEpsilon(delta2, math.Sqrt(2*mu), 1, 1, delta, dp.DefaultMaxAlpha)
		tbl.Rows = append(tbl.Rows, []string{fe(mu), f4(sk), f4(ga), fe(sk - ga)})
	}
	tbl.Notes = append(tbl.Notes, "the premium is the Delta1/mu term of Lemma 1 and vanishes as mu grows")
	return tbl
}
