package circuit

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/invariant"
	"sqm/internal/obs"
)

// Bindings supplies a plan's parameters for one execution, each slice
// indexed by declaration order: Consts for ConstParam, Inputs for
// InputParam, InputVecs for InputVecParam, ExtVecs for engine vectors
// declared with ExtVec (they must come from the engine the plan
// executes on), Indices for IndexParam. The engines take them as they
// are.
type Bindings = bgw.Binding

// Result holds one execution's opened values in gate record order and
// a view of the engine arena the execution ran in.
type Result struct {
	plan       *Plan
	eng        bgw.Evaluator // nil for Plain
	epoch      uint64        // eng.Epoch() of this execution
	opened     []int64
	openedVecs [][]int64
}

// Opened returns the k-th scalar output (the index OpenIdx returned).
func (r *Result) Opened(k int) int64 { return r.opened[k] }

// OpenedVec returns the k-th vector output.
func (r *Result) OpenedVec(k int) []int64 { return r.openedVecs[k] }

// ValOf returns an engine handle holding the shares the execution
// produced for a recorded scalar, for use with the engine's
// AdditiveShares.
//
// Lifetime: the shares live in the engine's arena, which the next
// execution on the same engine recycles, so ValOf and VecOf must be
// called before the engine runs another plan (they panic afterwards).
// The handles they return are copies owned by the engine and stay
// valid for the engine's lifetime.
func (r *Result) ValOf(h bgw.Val) bgw.Val {
	v, ok := h.(Val)
	if !ok {
		panic(invariant.Violation("circuit: ValOf needs a circuit handle"))
	}
	r.checkLive()
	return r.eng.Keep(r.plan.slots[v.id])
}

// VecOf returns an engine handle for a recorded vector, for use as an
// ExtVec binding of a later plan; see ValOf for its lifetime.
func (r *Result) VecOf(h bgw.Vec) bgw.Vec {
	v, ok := h.(Vec)
	if !ok {
		panic(invariant.Violation("circuit: VecOf needs a circuit handle"))
	}
	r.checkLive()
	return r.eng.KeepVec(r.plan.slots[v.id], v.n)
}

func (r *Result) checkLive() {
	if r.eng == nil {
		panic(invariant.Violation("circuit: a plain result has no engine shares"))
	}
	if r.eng.Epoch() != r.epoch {
		panic(invariant.Violation("circuit: engine arena recycled by a later execution"))
	}
}

// validate checks the bindings against the plan's parameters.
func (p *Plan) validate(bind Bindings) error {
	if len(bind.Consts) != p.nConsts {
		return fmt.Errorf("circuit: plan wants %d const params, got %d", p.nConsts, len(bind.Consts))
	}
	if len(bind.Inputs) != p.nInputs {
		return fmt.Errorf("circuit: plan wants %d input params, got %d", p.nInputs, len(bind.Inputs))
	}
	if len(bind.InputVecs) != len(p.inVecLens) {
		return fmt.Errorf("circuit: plan wants %d input-vec params, got %d", len(p.inVecLens), len(bind.InputVecs))
	}
	if len(bind.ExtVecs) != len(p.extLens) {
		return fmt.Errorf("circuit: plan wants %d external vectors, got %d", len(p.extLens), len(bind.ExtVecs))
	}
	if len(bind.Indices) != len(p.idxLimits) {
		return fmt.Errorf("circuit: plan wants %d index params, got %d", len(p.idxLimits), len(bind.Indices))
	}
	for k, vs := range bind.InputVecs {
		if len(vs) != int(p.inVecLens[k]) {
			return fmt.Errorf("circuit: input-vec param %d has %d elements, plan wants %d", k, len(vs), p.inVecLens[k])
		}
	}
	for k, v := range bind.ExtVecs {
		if v == nil {
			return fmt.Errorf("circuit: external vector %d unbound", k)
		}
		if v.Len() != int(p.extLens[k]) {
			return fmt.Errorf("circuit: external vector %d has %d elements, plan wants %d", k, v.Len(), p.extLens[k])
		}
	}
	for k, i := range bind.Indices {
		if i < 0 || (p.idxLimits[k] >= 0 && i >= int(p.idxLimits[k])) {
			return fmt.Errorf("circuit: index param %d = %d out of range [0,%d)", k, i, p.idxLimits[k])
		}
	}
	return nil
}

// Execute runs the plan against eng with level batching: all inputs
// share in one round, each multiplicative level runs as one batched
// degree-reduction round, and all outputs open in one batched round —
// Stats.Rounds advances by exactly Plan.Rounds(). The executor calls
// the engine once for the input round, once per level for the linear
// closure, once per multiplicative level and once for the opening
// round, so driving a plan costs O(depth) calls whatever its node
// count.
//
// When the engine's recorder admits debug events, the execution is
// traced: one "circuit.exec" span for the whole run with one
// "circuit.level" child per batched multiplication round and a
// "circuit.open" child for the output round, each carrying gate counts
// and the engine's frame/round deltas. Disabled telemetry skips all of
// it (the spans are inert and Stats is never read).
func (p *Plan) Execute(eng bgw.Evaluator, bind Bindings) (*Result, error) {
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	rec := eng.Recorder()
	exec := obs.StartTracedSpan(rec, "circuit.exec", 0,
		obs.Int("depth", p.depth), obs.Int("nodes", len(p.nodes)))
	var prev bgw.Stats
	if exec.Active() {
		prev = eng.Stats()
	}
	eng.Begin(&p.prog, bind)
	r := &Result{plan: p, eng: eng, epoch: eng.Epoch()}
	// Level 0: inputs, then the linear closure of the inputs and the
	// external bindings.
	if p.inputs > 0 {
		eng.ShareInputs()
		eng.AdvanceRound()
	}
	eng.RunLocal(0)
	// levelDelta closes one child span with the engine's traffic deltas
	// since the previous close.
	levelDelta := func(sp obs.TracedSpan) {
		if !sp.Active() {
			return
		}
		s := eng.Stats()
		sp.End(
			obs.Int64("frames", s.Frames-prev.Frames),
			obs.Int64("rounds", s.Rounds-prev.Rounds),
			obs.Int64("bytes", s.Bytes-prev.Bytes))
		prev = s
	}
	for lvl := 1; lvl <= p.depth; lvl++ {
		mul := p.prog.Levels[lvl].Mul
		sp := obs.StartTracedSpan(rec, "circuit.level", exec.ID(),
			obs.Int("level", lvl), obs.Int("gates", int(mul.Hi-mul.Lo)))
		eng.RunMul(lvl)
		eng.AdvanceRound()
		levelDelta(sp)
		eng.RunLocal(lvl)
	}
	if p.hasOpens() {
		sp := obs.StartTracedSpan(rec, "circuit.open", exec.ID(),
			obs.Int("opens", p.opens), obs.Int("open_vecs", p.openVecs))
		r.opened, r.openedVecs = eng.RunOpen()
		eng.AdvanceRound()
		levelDelta(sp)
	}
	exec.End()
	return r, nil
}
