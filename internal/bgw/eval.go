package bgw

import (
	"time"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/shamir"
)

// Val is an opaque handle to one secret-shared scalar. Each Evaluator
// implementation issues its own handle type (*Shared for the monolithic
// engine, *ActorShared for the party-actor engine); handles must only
// be passed back to the evaluator that issued them.
type Val interface{}

// Vec is an opaque handle to a secret-shared vector.
type Vec interface {
	// Len returns the number of shared elements.
	Len() int
}

// VecPair names one fused inner product of a DotBatch.
type VecPair struct{ A, B Vec }

// MulKind selects the shape of one MulBatch item.
type MulKind uint8

const (
	// MulScalar is one scalar product a·b (fields A, B).
	MulScalar MulKind = iota
	// MulInner is one fused inner product Σ_k As[k]·Bs[k] over scalar
	// handles (fields As, Bs).
	MulInner
	// MulDot is one fused inner product ⟨VA, VB⟩ over vector handles
	// (fields VA, VB).
	MulDot
)

// MulItem describes one multiplicative gate of a batched round. Only
// the fields selected by Kind are read.
type MulItem struct {
	Kind   MulKind
	A, B   Val   // MulScalar operands
	As, Bs []Val // MulInner operand lists
	VA, VB Vec   // MulDot operands
}

// Evaluator is the abstract MPC backend the SQM protocols run against.
// It captures exactly the share operations the paper's circuits need:
// input sharing, local linear algebra, degree-reduction multiplication,
// fused inner products and openings. Backends: the monolithic in-process
// engine (Eval), the party-actor engine over a pluggable transport
// (NewActorEngine), and — because BGW computes exactly — the plaintext
// engine in internal/core that bypasses sharing entirely.
//
// All operations follow the semi-honest, synchronized-round model of the
// concrete engines: structured protocols batch the independent messages
// of a phase into one round via AdvanceRound.
type Evaluator interface {
	// Parties returns P.
	Parties() int
	// Threshold returns t.
	Threshold() int
	// Latency returns the per-round latency used for simulated time.
	Latency() time.Duration
	// Stats returns a snapshot of the execution counters. For
	// transport-backed evaluators the message/byte counts are measured
	// from real traffic, not modeled.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// AdvanceRound accounts one communication round.
	AdvanceRound()
	// Recorder returns the backend's telemetry sink; never nil (the
	// no-op recorder when telemetry is disabled).
	Recorder() obs.Recorder
	// Err returns the first failure the backend hit (transport abort,
	// EOF mid-round); nil while healthy. Openings performed after a
	// failure return zero values.
	Err() error
	// Close releases backend resources (party goroutines, sockets).
	Close() error

	// Input has party owner secret-share the signed value v.
	Input(owner int, v int64) Val
	// InputElem has party owner secret-share a raw field element.
	InputElem(owner int, e field.Elem) Val
	// InputVec has party owner secret-share the signed vector vs.
	InputVec(owner int, vs []int64) Vec
	// Zero returns a trivial sharing of 0.
	Zero() Val
	// Add returns a sharing of a + b; local.
	Add(a, b Val) Val
	// Sub returns a sharing of a − b; local.
	Sub(a, b Val) Val
	// AddConst returns a sharing of a + c; local.
	AddConst(a Val, c int64) Val
	// MulConst returns a sharing of c·a; local.
	MulConst(a Val, c int64) Val
	// Mul returns a sharing of a·b via degree-reduction resharing.
	Mul(a, b Val) Val
	// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused
	// gate (one resharing total).
	InnerProduct(as, bs []Val) Val
	// AdditiveShares converts the Shamir sharing to an additive sharing
	// locally: party i's addend is weights[i]·share_i.
	AdditiveShares(s Val, weights []field.Elem) []field.Elem
	// Open reveals the signed secret to all parties.
	Open(s Val) int64

	// At extracts element k of a vector as a scalar; local.
	At(v Vec, k int) Val
	// AddVec returns the element-wise sum a + b; local.
	AddVec(a, b Vec) Vec
	// Dot returns a sharing of the inner product ⟨a, b⟩ (fused gate).
	Dot(a, b Vec) Val
	// DotBatch evaluates many fused inner products belonging to the
	// same communication round.
	DotBatch(pairs []VecPair, workers int) []Val
	// MulBatch evaluates one whole level of independent multiplicative
	// gates (scalar products, fused inner products, vector dots) in a
	// single degree-reduction round: all sub-shares travel in one frame
	// per ordered party pair. Results are returned in item order.
	MulBatch(items []MulItem) []Val
	// OpenBatch reveals many shared scalars in one batched opening
	// round (one frame per ordered party pair carrying every share).
	OpenBatch(vals []Val) []int64
	// FromScalars packs scalar shares into a vector; local.
	FromScalars(xs []Val) Vec
	// OpenVec reveals every element as one batched opening.
	OpenVec(v Vec) []int64
}

// Eval adapts the monolithic engine to the Evaluator interface. The
// engine's concrete API stays available for callers that want it; the
// adapter only translates handle types.
func Eval(e *Engine) Evaluator { return monoEval{e} }

type monoEval struct{ e *Engine }

func (m monoEval) Parties() int           { return m.e.Parties() }
func (m monoEval) Threshold() int         { return m.e.Threshold() }
func (m monoEval) Latency() time.Duration { return m.e.Latency() }
func (m monoEval) Stats() Stats           { return m.e.Stats() }
func (m monoEval) ResetStats()            { m.e.ResetStats() }
func (m monoEval) AdvanceRound()          { m.e.AdvanceRound() }
func (m monoEval) Recorder() obs.Recorder { return m.e.Recorder() }
func (m monoEval) Err() error             { return nil }
func (m monoEval) Close() error           { return nil }

func (m monoEval) Input(owner int, v int64) Val          { return m.e.Input(owner, v) }
func (m monoEval) InputElem(owner int, e field.Elem) Val { return m.e.InputElem(owner, e) }
func (m monoEval) InputVec(owner int, vs []int64) Vec    { return m.e.InputVec(owner, vs) }
func (m monoEval) Zero() Val                             { return m.e.Zero() }
func (m monoEval) Add(a, b Val) Val                      { return m.e.Add(a.(*Shared), b.(*Shared)) }
func (m monoEval) Sub(a, b Val) Val                      { return m.e.Sub(a.(*Shared), b.(*Shared)) }
func (m monoEval) AddConst(a Val, c int64) Val           { return m.e.AddConst(a.(*Shared), c) }
func (m monoEval) MulConst(a Val, c int64) Val           { return m.e.MulConst(a.(*Shared), c) }
func (m monoEval) Mul(a, b Val) Val                      { return m.e.Mul(a.(*Shared), b.(*Shared)) }
func (m monoEval) Open(s Val) int64                      { return m.e.Open(s.(*Shared)) }

func (m monoEval) SetWorkers(n int) int              { return m.e.SetWorkers(n) }
func (m monoEval) Begin(prog *Program, bind Binding) { m.e.Begin(prog, bind) }
func (m monoEval) ShareInputs()                      { m.e.ShareInputs() }
func (m monoEval) RunLocal(level int)                { m.e.RunLocal(level) }
func (m monoEval) RunMul(level int)                  { m.e.RunMul(level) }
func (m monoEval) RunOpen() ([]int64, [][]int64)     { return m.e.RunOpen() }
func (m monoEval) Keep(slot int32) Val               { return m.e.Keep(slot) }
func (m monoEval) KeepVec(ref int32, n int) Vec      { return m.e.KeepVec(ref, n) }
func (m monoEval) Epoch() uint64                     { return m.e.Epoch() }

func (m monoEval) InnerProduct(as, bs []Val) Val {
	ca := make([]*Shared, len(as))
	cb := make([]*Shared, len(bs))
	for i := range as {
		ca[i] = as[i].(*Shared)
		cb[i] = bs[i].(*Shared)
	}
	return m.e.InnerProduct(ca, cb)
}

func (m monoEval) AdditiveShares(s Val, weights []field.Elem) []field.Elem {
	return s.(*Shared).AdditiveShares(weights)
}

func (m monoEval) At(v Vec, k int) Val   { return v.(*SharedVec).At(k) }
func (m monoEval) AddVec(a, b Vec) Vec   { return m.e.AddVec(a.(*SharedVec), b.(*SharedVec)) }
func (m monoEval) Dot(a, b Vec) Val      { return m.e.Dot(a.(*SharedVec), b.(*SharedVec)) }
func (m monoEval) OpenVec(v Vec) []int64 { return m.e.OpenVec(v.(*SharedVec)) }

func (m monoEval) DotBatch(pairs []VecPair, workers int) []Val {
	dp := make([]DotPair, len(pairs))
	for i, p := range pairs {
		dp[i] = DotPair{A: p.A.(*SharedVec), B: p.B.(*SharedVec)}
	}
	shared := m.e.DotBatch(dp, workers)
	out := make([]Val, len(shared))
	for i, s := range shared {
		out[i] = s
	}
	return out
}

// MulBatch computes every item's local degree-2t value and restores
// degree t with a single batched resharing round. Validation and stats
// run serially up front (the counts depend only on batch shape); the
// share arithmetic then splits across the worker pool with slab-pooled
// accumulators, each item writing its own slot so the merge order is
// the item order regardless of scheduling.
func (m monoEval) MulBatch(items []MulItem) []Val {
	e := m.e
	out := make([]Val, len(items))
	if len(items) == 0 {
		return out
	}
	for _, it := range items {
		switch it.Kind {
		case MulScalar:
			e.checkSame(it.A.(*Shared), it.B.(*Shared))
			e.stats.FieldOps += int64(e.p)
		case MulInner:
			for k := range it.As {
				e.checkSame(it.As[k].(*Shared), it.Bs[k].(*Shared))
			}
			e.stats.FieldOps += int64(e.p * len(it.As))
		case MulDot:
			a, b := it.VA.(*SharedVec), it.VB.(*SharedVec)
			e.checkSameVec(a, b)
			e.stats.FieldOps += int64(e.p * a.Len())
		}
	}
	highs := make([][]field.Elem, len(items))
	for idx := range highs {
		highs[idx] = e.scratch.get()
	}
	parallelChunks(len(items), clampWorkers(e.workers, len(items)), func(_, start, end int) {
		for idx := start; idx < end; idx++ {
			it := items[idx]
			acc := highs[idx] // zeroed by the slab
			switch it.Kind {
			case MulScalar:
				field.MulVec(acc, it.A.(*Shared).shares, it.B.(*Shared).shares)
			case MulInner:
				for k := range it.As {
					field.MulAccVec(acc, it.As[k].(*Shared).shares, it.Bs[k].(*Shared).shares)
				}
			case MulDot:
				a, b := it.VA.(*SharedVec), it.VB.(*SharedVec)
				for i := 0; i < e.p; i++ {
					acc[i] = field.DotAcc(0, a.shares[i], b.shares[i])
				}
			}
		}
	})
	for i, s := range e.reshareBatch(highs) {
		out[i] = s
	}
	for _, h := range highs {
		e.scratch.put(h)
	}
	return out
}

// OpenBatch reveals every value in one batched opening round.
func (m monoEval) OpenBatch(vals []Val) []int64 {
	e := m.e
	out := make([]int64, len(vals))
	if len(vals) == 0 {
		return out
	}
	for k, v := range vals {
		s := v.(*Shared)
		if s.eng != e {
			panic(invariant.Violation("bgw: foreign share"))
		}
		out[k] = field.ToInt64(shamir.ReconstructWithWeights(e.weights, s.shares))
	}
	e.meterOpen(int64(len(vals)))
	return out
}

func (m monoEval) FromScalars(xs []Val) Vec {
	cx := make([]*Shared, len(xs))
	for i := range xs {
		cx[i] = xs[i].(*Shared)
	}
	return m.e.FromScalars(cx)
}
