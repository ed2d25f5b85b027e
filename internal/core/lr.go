package core

import (
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/mathx"
	"sqm/internal/quant"
	"sqm/internal/randx"
)

// LRProtocol holds the per-training-run state of the logistic-regression
// instantiation (§V-B). The clients quantize and (for the BGW engine)
// secret-share their feature columns and the label column once; each
// SGD round then evaluates the degree-2 polynomial gradient of Eq. (9)
//
//	f(w, (x, y)) = ½·x + ⟨w/4, x⟩·x − y·x
//
// on a shared-randomness batch with fresh Skellam noise. Because the
// weight vector is public, folding it in is a local linear combination;
// only one fused inner product per output coordinate needs a resharing.
type LRProtocol struct {
	p        Params
	m, d     int
	gammaInt int64 // γ as an exact integer (the coefficient of −y·x after pre-processing)

	pub        *randx.RNG
	clientRNGs []*randx.RNG

	// Plain engine state.
	feat *quant.IntMatrix // m × d quantized features
	lab  []int64          // γ·y (exact for y ∈ {0,1})

	// MPC engine state (nil for EnginePlain).
	eng        bgw.Evaluator
	cols       []bgw.Vec // shared feature columns, then the label column
	setupStats bgw.Stats

	// Compiled gradient plans keyed by batch size: the circuit shape
	// depends only on |batch| and d, so each shape compiles once and
	// re-executes every round with fresh bindings.
	plans map[int]*lrPlan
}

// lrPlan is one compiled gradient circuit plus its output indices.
type lrPlan struct {
	plan   *circuit.Plan
	outIdx []int
}

// NewLRProtocol quantizes and (for EngineBGW) shares the training data.
// Labels must be 0/1; features are the first d columns and the label is
// the (d+1)-th column of the vertical partition, so p.NumClients
// defaults to d+1 as in the paper's experiments.
func NewLRProtocol(features *linalg.Matrix, labels []float64, p Params) (*LRProtocol, error) {
	if features.Rows != len(labels) {
		return nil, fmt.Errorf("core: %d rows but %d labels", features.Rows, len(labels))
	}
	if err := p.normalize(features.Cols + 1); err != nil {
		return nil, err
	}
	if !mathx.EqualWithin(p.Gamma, math.Trunc(p.Gamma), 0) {
		return nil, fmt.Errorf("core: LR protocol requires an integer gamma, got %v", p.Gamma)
	}
	lr := &LRProtocol{p: p, m: features.Rows, d: features.Cols, gammaInt: int64(p.Gamma)}
	lr.pub, lr.clientRNGs = rngFamily(p.Seed, p.NumClients)
	lr.feat = quantizeByClient(features, p, lr.clientRNGs)

	labelClient := p.clientOf(features.Cols, features.Cols+1)
	g := lr.clientRNGs[labelClient]
	lr.lab = make([]int64, lr.m)
	for i, y := range labels {
		if !mathx.EqualWithin(y, 0, 0) && !mathx.EqualWithin(y, 1, 0) {
			return nil, fmt.Errorf("core: label %v is not 0/1", y)
		}
		lr.lab[i] = g.StochasticRound(p.Gamma * y) // exact: γ·y is integral
	}

	if p.Engine.IsMPC() {
		eng, err := p.newEvaluator(0x17a3)
		if err != nil {
			return nil, err
		}
		lr.eng = eng
		lr.plans = make(map[int]*lrPlan)
		// The one-time data-sharing phase is its own single-round plan;
		// the column handles it produces persist inside the engine and
		// feed every gradient plan through external bindings.
		sb := circuit.NewBuilder(p.Parties, p.Threshold)
		featH := make([]bgw.Vec, lr.d)
		for j := 0; j < lr.d; j++ {
			featH[j] = sb.InputVec(p.partyOf(p.clientOf(j, lr.d+1)), lr.feat.Col(j))
		}
		labH := sb.InputVec(p.partyOf(labelClient), lr.lab)
		setupPlan, err := sb.Compile()
		if err != nil {
			eng.Close()
			return nil, err
		}
		sres, err := setupPlan.Execute(eng, circuit.Bindings{})
		if err != nil {
			eng.Close()
			return nil, err
		}
		lr.cols = make([]bgw.Vec, 0, lr.d+1)
		for _, h := range append(featH, labH) {
			lr.cols = append(lr.cols, sres.VecOf(h))
		}
		lr.setupStats = eng.Stats()
		if err := eng.Err(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return lr, nil
}

// Close releases the MPC backend (party goroutines, sockets); no-op for
// the plain engine. The protocol is unusable afterwards.
func (lr *LRProtocol) Close() error {
	if lr.eng != nil {
		return lr.eng.Close()
	}
	return nil
}

// NumRecords returns m.
func (lr *LRProtocol) NumRecords() int { return lr.m }

// SampleBatch draws the shared-randomness Poisson batch of one round
// (its membership is known to the clients but not the server).
func (lr *LRProtocol) SampleBatch(q float64) []int {
	return lr.pub.BernoulliSubset(lr.m, q)
}

// GradientSum evaluates Σ_{i∈batch} f(w, (x_i, y_i)) + Sk(μ) per
// coordinate and returns the server's down-scaled estimate (divide by
// γ³, the γ^{λ+1} of the degree-2 polynomial).
func (lr *LRProtocol) GradientSum(w []float64, batch []int) ([]float64, *Trace, error) {
	if len(w) != lr.d {
		return nil, nil, fmt.Errorf("core: weight dim %d != %d", len(w), lr.d)
	}
	start := time.Now()
	p := lr.p
	// Coefficient pre-processing (public): ŵ_j = round(γ·w_j/4) for the
	// degree-2 monomials, qHalf = round(γ²·½) for the degree-1 term.
	wq := make([]int64, lr.d)
	for j, wj := range w {
		wq[j] = lr.pub.StochasticRound(p.Gamma * wj / 4)
	}
	qHalf := lr.pub.StochasticRound(p.Gamma * p.Gamma / 2)

	noiseStart := time.Now()
	noise := sampleNoiseShares(lr.clientRNGs, lr.d, p.Mu)
	noiseSample := time.Since(noiseStart)

	if err := lr.checkBound(wq, qHalf, len(batch)); err != nil {
		return nil, nil, err
	}

	tr := &Trace{Scale: math.Pow(p.Gamma, 3), Lat: p.Latency}
	var scaled []int64
	var err error
	switch {
	case p.Engine == EnginePlain:
		scaled = lr.plainGradient(wq, qHalf, batch, noise, tr)
	case p.Engine.IsMPC():
		scaled, err = lr.mpcGradient(wq, qHalf, batch, noise, tr)
	default:
		err = errUnknownEngine(p.Engine)
	}
	if err != nil {
		return nil, nil, err
	}
	tr.Scaled = scaled
	tr.NoiseCompute += noiseSample
	tr.Compute = time.Since(start)
	est := make([]float64, lr.d)
	for t, v := range scaled {
		est[t] = float64(v) / tr.Scale
	}
	return est, tr, nil
}

// checkBound statically verifies that the scaled gradient sum plus the
// noise tail fits the signed field range.
func (lr *LRProtocol) checkBound(wq []int64, qHalf int64, batch int) error {
	maxFeat := float64(lr.feat.MaxAbs())
	var wAbs float64
	for _, v := range wq {
		wAbs += math.Abs(float64(v))
	}
	// |u_i| <= qHalf + Σ|ŵ_j|·maxFeat + γ².
	u := math.Abs(float64(qHalf)) + wAbs*maxFeat + lr.p.Gamma*lr.p.Gamma
	bound := maxFeat*u*float64(batch) + noiseMargin(lr.p.Mu)
	return checkFieldBound(bound)
}

// plainGradient: grad_t = Σ_{i∈batch} x̂_{it}·(qHalf + Σ_j ŵ_j x̂_{ij} − γ·ŷ_i).
func (lr *LRProtocol) plainGradient(wq []int64, qHalf int64, batch []int, noise [][]int64, tr *Trace) []int64 {
	grad := make([]int64, lr.d)
	for _, i := range batch {
		row := lr.feat.Row(i)
		var s int64
		for j, xj := range row {
			s += wq[j] * xj
		}
		u := qHalf + s - lr.gammaInt*lr.lab[i]
		for t, xt := range row {
			grad[t] += xt * u
		}
	}
	noiseStart := time.Now()
	for _, shares := range noise {
		for t, z := range shares {
			grad[t] += z
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	return grad
}

// gradientPlan compiles (and caches) the gradient circuit for a batch
// of B records: the public coefficients enter as const parameters, the
// batch's rows as index parameters into the shared columns (see
// batchRows), the per-client noise shares as input parameters. Depth 1
// (one fused inner product per coordinate), so the plan runs in exactly
// three wire rounds — noise input, batched resharing, batched output —
// for any B.
func (lr *LRProtocol) gradientPlan(B int) *lrPlan {
	if pl, ok := lr.plans[B]; ok {
		return pl
	}
	p := lr.p
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	wqP := make([]circuit.ConstID, lr.d)
	for j := range wqP {
		wqP[j] = b.ConstParam()
	}
	qHalfP := b.ConstParam()

	feats, labs := batchRows(b, lr.d, lr.m, B)

	// Per-client noise share parameters, coordinate-major.
	noiseShared := make([]bgw.Val, lr.d)
	for t := 0; t < lr.d; t++ {
		acc := b.Zero()
		for j := 0; j < p.NumClients; j++ {
			acc = b.Add(acc, b.InputParam(p.partyOf(j)))
		}
		noiseShared[t] = acc
	}

	// u_i = qHalf + Σ_j ŵ_j x̂_{ij} − γ·ŷ_i, local per record.
	us := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		acc := b.Zero()
		for j := 0; j < lr.d; j++ {
			acc = b.Add(acc, b.MulConstP(feats[bi][j], wqP[j]))
		}
		acc = b.Sub(acc, b.MulConst(labs[bi], lr.gammaInt))
		us[bi] = b.AddConstP(acc, qHalfP)
	}

	outIdx := make([]int, lr.d)
	xs := make([]bgw.Val, B)
	for t := 0; t < lr.d; t++ {
		for bi := 0; bi < B; bi++ {
			xs[bi] = feats[bi][t]
		}
		outIdx[t] = b.OpenIdx(b.Add(b.InnerProduct(xs, us), noiseShared[t]))
	}
	pl := &lrPlan{plan: b.MustCompile(), outIdx: outIdx}
	lr.plans[B] = pl
	return pl
}

// batchRows declares the data side of a gradient plan: the d feature
// columns and the label column as external vectors of m shared rows
// (bound to the protocol's cols), and one index parameter per batch
// position (bound to the Poisson batch). It returns each position's
// feature and label handles; reading them is local.
func batchRows(b *circuit.Builder, d, m, B int) (feats [][]bgw.Val, labs []bgw.Val) {
	cols := make([]bgw.Vec, d+1)
	for j := range cols {
		cols[j] = b.ExtVec(m)
	}
	feats = make([][]bgw.Val, B)
	labs = make([]bgw.Val, B)
	for bi := range feats {
		row := b.IndexParam()
		feats[bi] = make([]bgw.Val, d)
		for j := range feats[bi] {
			feats[bi][j] = b.AtIndex(cols[j], row)
		}
		labs[bi] = b.AtIndex(cols[d], row)
	}
	return feats, labs
}

// mpcGradient runs one SGD round over secret shares by executing the
// compiled gradient plan: the public weights fold in locally, all fused
// inner products reshare in a single batched round, and the round count
// derives from the plan's depth.
func (lr *LRProtocol) mpcGradient(wq []int64, qHalf int64, batch []int, noise [][]int64, tr *Trace) ([]int64, error) {
	eng := lr.eng
	before := eng.Stats()
	pl := lr.gradientPlan(len(batch))

	consts := make([]int64, 0, lr.d+1)
	consts = append(consts, wq...)
	consts = append(consts, qHalf)

	noiseStart := time.Now()
	inputs := make([]int64, 0, lr.d*len(noise))
	for t := 0; t < lr.d; t++ {
		for _, shares := range noise {
			inputs = append(inputs, shares[t])
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	tr.NoiseRounds++

	res, err := pl.plan.Execute(eng, circuit.Bindings{Consts: consts, Inputs: inputs, ExtVecs: lr.cols, Indices: batch})
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}

	scaled := make([]int64, lr.d)
	for t := range scaled {
		scaled[t] = res.Opened(pl.outIdx[t])
	}

	after := eng.Stats()
	tr.Stats = bgw.Stats{
		Rounds:   after.Rounds - before.Rounds,
		Frames:   after.Frames - before.Frames,
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
		FieldOps: after.FieldOps - before.FieldOps,
	}
	return scaled, nil
}

// SetupStats returns the protocol counters of the one-time data-sharing
// phase (EngineBGW only; zero otherwise).
func (lr *LRProtocol) SetupStats() bgw.Stats { return lr.setupStats }
