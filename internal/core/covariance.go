package core

import (
	"math"
	"runtime"
	"sync"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/linalg"
	"sqm/internal/quant"
	"sqm/internal/randx"
)

// CovarianceSensitivities returns Lemma 5's L2/L1 sensitivities of the
// quantized covariance release for records with ‖x‖₂ <= c over n
// attributes: Δ₂ = γ²c² + n, Δ₁ = min(Δ₂², √d·Δ₂) with d = n².
func CovarianceSensitivities(gamma, c float64, n int) (delta2, delta1 float64) {
	delta2 = gamma*gamma*c*c + float64(n)
	d := float64(n) * float64(n)
	delta1 = math.Min(delta2*delta2, math.Sqrt(d)*delta2)
	return delta2, delta1
}

// Covariance runs the PCA instantiation of SQM (§V-A): the clients
// quantize their columns, jointly compute the Gram matrix X̂ᵀX̂ of the
// quantized data, and perturb it with a symmetric Skellam noise matrix
// assembled from per-client shares (entry (a,b), a <= b, receives
// Σ_j Sk(μ/n) and is mirrored). The server receives C̃ and down-scales
// by γ². The polynomial here is f(x) = xᵀx with unit coefficients, so
// per the paper no coefficient pre-processing is applied and the scale
// is γ^λ = γ².
func Covariance(x *linalg.Matrix, p Params) (*linalg.Matrix, *Trace, error) {
	if err := p.normalize(x.Cols); err != nil {
		return nil, nil, err
	}
	// Meter the release at Lemma 5's closed form for unit-norm records.
	if p.Acct != nil {
		d2, d1 := CovarianceSensitivities(p.Gamma, 1, x.Cols)
		p.Acct.AddSkellam(d1, d2, p.Mu)
	}
	start := time.Now()
	_, clientRNGs := rngFamily(p.Seed, p.NumClients)
	qd := quantizeByClient(x, p, clientRNGs)

	n := x.Cols
	pairs := n * (n + 1) / 2

	// Static overflow check: each Gram entry is at most m·maxAbs² plus
	// the noise tail.
	maxAbs := float64(qd.MaxAbs())
	if err := checkFieldBound(maxAbs*maxAbs*float64(x.Rows) + noiseMargin(p.Mu)); err != nil {
		return nil, nil, err
	}

	tr := &Trace{Scale: p.Gamma * p.Gamma, Lat: p.Latency}
	var upper []int64
	var err error
	switch {
	case p.Engine == EnginePlain:
		upper, err = plainCovariance(qd, clientRNGs, p.Mu, pairs, tr)
	case p.Engine.IsMPC():
		upper, err = mpcCovariance(qd, clientRNGs, &p, pairs, tr)
	default:
		err = errUnknownEngine(p.Engine)
	}
	if err != nil {
		return nil, nil, err
	}

	// Unpack the upper triangle into the symmetric estimate C̃/γ².
	out := linalg.NewMatrix(n, n)
	idx := 0
	inv := 1 / tr.Scale
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			v := float64(upper[idx]) * inv
			out.Set(a, b, v)
			out.Set(b, a, v)
			idx++
		}
	}
	tr.Compute = time.Since(start)
	return out, tr, nil
}

func errUnknownEngine(k EngineKind) error {
	return &engineError{kind: k}
}

type engineError struct{ kind EngineKind }

func (e *engineError) Error() string { return "core: unknown engine " + e.kind.String() }

// plainCovariance computes the upper triangle of X̂ᵀX̂ plus aggregated
// noise with direct integer arithmetic.
func plainCovariance(qd *quant.IntMatrix, clientRNGs []*randx.RNG, mu float64, pairs int, tr *Trace) ([]int64, error) {
	n := qd.Cols
	upper := make([]int64, pairs)
	// Row-major accumulation over records keeps the inner loop cache
	// friendly; large inputs split across workers with exact int64
	// partial sums, so the result is independent of the schedule.
	accumulate := func(lo, hi int, dst []int64) {
		for i := lo; i < hi; i++ {
			row := qd.Row(i)
			idx := 0
			for a := 0; a < n; a++ {
				va := row[a]
				if va == 0 {
					idx += n - a
					continue
				}
				for b := a; b < n; b++ {
					dst[idx] += va * row[b]
					idx++
				}
			}
		}
	}
	const parallelThreshold = 1 << 22 // ~4M multiply-adds
	if work := qd.Rows * pairs; work >= parallelThreshold && qd.Rows >= 4 {
		workers := runtime.GOMAXPROCS(0)
		if workers > qd.Rows {
			workers = qd.Rows
		}
		partials := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * qd.Rows / workers
			hi := (w + 1) * qd.Rows / workers
			partials[w] = make([]int64, pairs)
			wg.Add(1)
			go func(lo, hi int, dst []int64) {
				defer wg.Done()
				accumulate(lo, hi, dst)
			}(lo, hi, partials[w])
		}
		wg.Wait()
		for _, p := range partials {
			for k, v := range p {
				upper[k] += v
			}
		}
	} else {
		accumulate(0, qd.Rows, upper)
	}
	noiseStart := time.Now()
	share := mu / float64(len(clientRNGs))
	for _, g := range clientRNGs {
		for k := range upper {
			upper[k] += g.Skellam(share)
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	return upper, nil
}

// mpcCovariance runs the same computation over secret shares with the
// selected Evaluator backend, recorded as a level-scheduled plan: one
// input round (data + noise), one batched inner-product round (all
// fused gates in a single reshare exchange), one batched opening
// round. Noise shares enter during the input round and are aggregated
// locally.
func mpcCovariance(qd *quant.IntMatrix, clientRNGs []*randx.RNG, p *Params, pairs int, tr *Trace) ([]int64, error) {
	n := qd.Cols
	b := circuit.NewBuilder(p.Parties, p.Threshold)
	cols := make([]bgw.Vec, n)
	for j := 0; j < n; j++ {
		cols[j] = b.InputVec(p.partyOf(p.clientOf(j, n)), qd.Col(j))
	}
	// Noise: every client samples and inputs its share vector; the
	// aggregation is local addition of share vectors.
	noiseStart := time.Now()
	share := p.Mu / float64(len(clientRNGs))
	var noiseAcc bgw.Vec
	for j, g := range clientRNGs {
		v := b.InputVec(p.partyOf(j), g.SkellamVec(pairs, share))
		if noiseAcc == nil {
			noiseAcc = v
		} else {
			noiseAcc = b.AddVec(noiseAcc, v)
		}
	}
	tr.NoiseCompute += time.Since(noiseStart)
	tr.NoiseRounds++

	dots := make([]bgw.Val, 0, pairs)
	for a := 0; a < n; a++ {
		for c := a; c < n; c++ {
			dots = append(dots, b.Dot(cols[a], cols[c]))
		}
	}
	outIdx := b.OpenVecIdx(b.AddVec(b.FromScalars(dots), noiseAcc))
	plan, err := b.Compile()
	if err != nil {
		return nil, err
	}

	eng, err := p.newEvaluator(0x51c0)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res, err := plan.Execute(eng, circuit.Bindings{})
	if err != nil {
		return nil, err
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	tr.Stats = eng.Stats()
	return res.OpenedVec(outIdx), nil
}
