package bgw

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// arena is the monolithic engine's plan-execution state: one share
// column per party, sized to the widest program seen and recycled by
// every Begin, plus the scratch the steps reuse. Nothing in it is
// allocated per node.
type arena struct {
	prog  *Program
	epoch uint64

	cols   [][]field.Elem // cols[i][slot] is party i's share
	ext    [][][]field.Elem
	ks     []kernel // party i's view of the execution
	consts []field.Elem
	highs  [][]field.Elem // highs[i][gate]: party i's degree-2t products
	subs   [][]field.Elem // per-chunk Shamir sub-share scratch, P wide
	shares []field.Elem   // one value's P shares, gathered for opening
}

// Begin implements Evaluator: it sizes the arena for prog and binds one
// execution's parameters.
func (e *Engine) Begin(prog *Program, bind Binding) {
	r := &e.run
	if r.cols == nil {
		r.cols = make([][]field.Elem, e.p)
		r.ext = make([][][]field.Elem, e.p)
		r.ks = make([]kernel, e.p)
		r.highs = make([][]field.Elem, e.p)
		r.subs = [][]field.Elem{make([]field.Elem, e.p)}
		r.shares = make([]field.Elem, e.p)
	}
	for i := range r.ext {
		r.ext[i] = r.ext[i][:0]
	}
	for _, v := range bind.ExtVecs {
		sv, ok := v.(*SharedVec)
		if !ok || sv.eng != e {
			panic(invariant.Violation("bgw: external vector from a different engine"))
		}
		for i := range r.ext {
			r.ext[i] = append(r.ext[i], sv.shares[i])
		}
	}
	r.epoch++
	r.prog = prog
	r.consts = growElems(r.consts, len(bind.Consts))
	for k, c := range bind.Consts {
		r.consts[k] = field.FromInt64(c)
	}
	for i := range r.cols {
		r.cols[i] = growElems(r.cols[i], prog.Slots)
		r.ks[i] = kernel{prog: prog, s: r.cols[i], ext: r.ext[i], consts: r.consts,
			indices: bind.Indices, inputs: bind.Inputs, inputVecs: bind.InputVecs}
	}
}

// Epoch implements Evaluator.
func (e *Engine) Epoch() uint64 { return e.run.epoch }

// ShareInputs implements Evaluator: every input is Shamir-shared from its
// owner's stream, in program order, straight into the arena.
func (e *Engine) ShareInputs() {
	r := &e.run
	sub := r.subs[0]
	for _, in := range r.prog.code(r.prog.Inputs) {
		n := in.width()
		for k := int32(0); k < n; k++ {
			shamir.ShareInto(sub, r.ks[0].input(&in, k), e.t, e.rngs[in.B])
			for i, col := range r.cols {
				col[in.Dst+k] = sub[i]
			}
		}
		e.meterInput(int64(n))
	}
}

// RunLocal implements Evaluator: the level's linear closure, one kernel
// call per party column.
func (e *Engine) RunLocal(level int) {
	r := &e.run
	lv := &r.prog.Levels[level]
	code := r.prog.code(lv.Local)
	for i := range r.ks {
		r.ks[i].local(code)
	}
	e.stats.FieldOps += int64(e.p) * lv.LocalOps
}

// RunMul implements Evaluator: every party computes the level's degree-2t
// products, then one batched resharing round restores degree t into
// the gates' slots. With one worker each party draws its sub-share
// polynomials from its own stream value-major (gate 0, 1, …), like the
// actor parties. With more, the gates split into contiguous chunks and
// each chunk reshares from per-chunk forks of the party streams, taken
// serially in chunk order, so the randomness is fixed by the worker
// count. The two disciplines draw different polynomials, but the
// reconstructed secrets cancel the resharing randomness, so opened
// outputs are bit-identical either way.
func (e *Engine) RunMul(level int) {
	r := &e.run
	lv := &r.prog.Levels[level]
	code := r.prog.code(lv.Mul)
	n := len(code)
	for i := range r.highs {
		r.highs[i] = growElems(r.highs[i], n)
	}
	w := clampWorkers(e.workers, n)
	for len(r.subs) < w {
		r.subs = append(r.subs, make([]field.Elem, e.p))
	}
	parallelChunks(n, w, func(_, lo, hi int) {
		for i := range r.ks {
			r.ks[i].mul(code[lo:hi], r.highs[i][lo:hi])
		}
	})
	for _, in := range code {
		for _, col := range r.cols {
			col[in.Dst] = 0
		}
	}
	if w <= 1 {
		e.reshareInto(code, 0, n, e.rngs, r.subs[0])
	} else {
		forks := e.forkChunks(w)
		parallelChunks(n, w, func(c, lo, hi int) {
			e.reshareInto(code, lo, hi, forks[c], r.subs[c])
		})
	}
	e.stats.FieldOps += int64(e.p) * lv.MulOps
	e.meterReshare(int64(n))
}

// reshareInto degree-reduces gates [lo, hi) of a level: party i
// re-shares each of its products from rngs[i] and every party folds
// the sub-shares into the gate's slot with party i's Lagrange weight.
func (e *Engine) reshareInto(code []Instr, lo, hi int, rngs []*randx.RNG, sub []field.Elem) {
	r := &e.run
	for i := 0; i < e.p; i++ {
		wi, highs := e.weights[i], r.highs[i]
		for m := lo; m < hi; m++ {
			shamir.ShareInto(sub, highs[m], e.t, rngs[i])
			dst := code[m].Dst
			for j, col := range r.cols {
				col[dst] = field.Add(col[dst], field.Mul(sub[j], wi))
			}
		}
	}
}

// RunOpen implements Evaluator: all scalar outputs open as one batch, each
// vector output as its own batch, in program order.
func (e *Engine) RunOpen() ([]int64, [][]int64) {
	r := &e.run
	code := r.prog.code(r.prog.Opens)
	scalars := openScalars(code)
	var opened []int64
	if scalars > 0 {
		opened = make([]int64, scalars)
		e.meterOpen(int64(scalars))
	}
	vecs := make([][]int64, 0, len(code)-scalars)
	for m, in := range code {
		if in.Op == OpOpen {
			for i, col := range r.cols {
				r.shares[i] = col[in.A]
			}
			opened[m] = field.ToInt64(shamir.ReconstructWithWeights(e.weights, r.shares))
			continue
		}
		out := make([]int64, in.N)
		for k := range out {
			for i := range r.ks {
				r.shares[i] = r.ks[i].vec(in.A, in.N)[k]
			}
			out[k] = field.ToInt64(shamir.ReconstructWithWeights(e.weights, r.shares))
		}
		vecs = append(vecs, out)
		e.meterOpen(int64(in.N))
	}
	return opened, vecs
}

// openScalars counts the scalar opens leading an open span.
func openScalars(code []Instr) int {
	n := 0
	for n < len(code) && code[n].Op == OpOpen {
		n++
	}
	return n
}

// Keep implements Evaluator: the shares in slot, copied out of the arena.
func (e *Engine) Keep(slot int32) Val {
	out := &Shared{eng: e, shares: make([]field.Elem, e.p)}
	for i, col := range e.run.cols {
		out.shares[i] = col[slot]
	}
	return out
}

// KeepVec implements Evaluator: the n-element vector at ref, copied out
// of the arena (or out of the bound external vector).
func (e *Engine) KeepVec(ref int32, n int) Vec {
	r := &e.run
	out := &SharedVec{eng: e, shares: make([][]field.Elem, e.p)}
	for i := range r.ks {
		out.shares[i] = append([]field.Elem(nil), r.ks[i].vec(ref, int32(n))...)
	}
	return out
}
