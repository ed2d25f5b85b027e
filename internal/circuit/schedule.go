package circuit

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/invariant"
)

// Plan is a compiled, level-scheduled circuit. It is immutable and
// engine-agnostic: the same plan executes against the monolithic
// engine, the actor engine, or the plain interpreter, with outputs
// bit-identical across all of them. A plan holds no pointers beyond its
// slice headers, so the GC never scans a cached plan's contents.
type Plan struct {
	p, t  int
	nodes []node       // the recorded IR, in record order (Plain)
	args  []int32      // the IR's operand lists
	lits  []field.Elem // literals, shared with prog.Lits
	slots []int32      // per node: its arena slot or vector ref (ValOf, VecOf)
	prog  bgw.Program  // the kernel program the engines run

	depth, mulGates, inputs, opens, openVecs int
	nConsts, nInputs                         int
	inVecLens, extLens, idxLimits            []int32 // per input-vec, external and index param
}

// Compile levels the recorded DAG by multiplicative depth and lowers it
// to a kernel program. The leveling rule: inputs, external bindings and
// constants sit at level 0; local (linear) operations inherit the
// maximum level of their operands; multiplicative gates (Mul,
// InnerProduct, Dot) take the maximum operand level plus one. All
// gates of a level are independent by construction and execute as one
// batched communication round.
//
// Slots are assigned in record order, one per scalar node and one per
// element of a vector node, with three exceptions that take no slot:
// all Zero nodes share one slot, At on an arena vector aliases the
// element's slot, and an external vector is addressed by its ref.
func (b *Builder) Compile() (*Plan, error) {
	n := len(b.nodes)
	p := &Plan{
		p: b.p, t: b.t, nConsts: b.nConsts, nInputs: b.nInputs,
		nodes:     append([]node(nil), b.nodes...),
		args:      append([]int32(nil), b.args...),
		lits:      append([]field.Elem(nil), b.lits...),
		slots:     make([]int32, n),
		inVecLens: append([]int32(nil), b.inVecLens...),
		extLens:   append([]int32(nil), b.extLens...),
		idxLimits: append([]int32(nil), b.idxLimits...),
	}
	levels := make([]int32, n)
	zero := int32(-1)
	next := int32(0)
	alloc := func(k int32) int32 {
		s := next
		next += k
		return s
	}
	// Pass 1: levels, slots and the instruction count of every code
	// section, keyed inputs / level-major (mul, local) / opens.
	var inputs, scalarOpens, vecOpens int
	var muls, locals []int
	grow := func(lvl int32) {
		for int(lvl) >= len(locals) {
			muls = append(muls, 0)
			locals = append(locals, 0)
		}
	}
	grow(0)
	for id := range p.nodes {
		nd := &p.nodes[id]
		lvl := int32(0)
		use := func(op int32) {
			if op < 0 || int(op) >= id {
				// Record order is topological; a forward reference is a
				// corrupted handle.
				panic(invariant.Violation("circuit: node %d references %d out of order", id, op))
			}
			lvl = max(lvl, levels[op])
		}
		switch nd.kind {
		case kZero, kInput, kInputVec, kInputParam, kInputVecParam, kExtVec:
			// leaves: level 0
		case kAdd, kSub, kAddVec, kMul, kDot:
			use(nd.a)
			use(nd.b)
		case kAddConst, kMulConst, kAddConstP, kMulConstP, kAt, kAtIndex, kOpen, kOpenVec:
			use(nd.a)
		case kInner:
			for _, op := range p.args[nd.b : nd.b+2*nd.n] {
				use(op)
			}
		case kFromScalars:
			for _, op := range p.args[nd.b : nd.b+nd.n] {
				use(op)
			}
		default:
			return nil, fmt.Errorf("circuit: unknown node kind %d", nd.kind)
		}
		if nd.kind.isMul() {
			lvl++
		}
		levels[id] = lvl
		grow(lvl)
		p.depth = max(p.depth, int(lvl))
		switch {
		case nd.kind == kZero:
			if zero < 0 {
				zero = alloc(1)
				locals[0]++
			}
			p.slots[id] = zero
		case nd.kind == kExtVec:
			p.slots[id] = ^nd.b
		case nd.kind == kAt && p.slots[nd.a] >= 0:
			p.slots[id] = p.slots[nd.a] + nd.b
		case nd.kind == kOpen:
			scalarOpens++
		case nd.kind == kOpenVec:
			vecOpens++
		default:
			width := int32(1)
			switch nd.kind {
			case kInputVec, kInputVecParam, kAddVec, kFromScalars:
				width = nd.n
			}
			p.slots[id] = alloc(width)
			switch {
			case nd.kind.isInput():
				inputs++
			case nd.kind.isMul():
				muls[lvl]++
				p.mulGates++
			default:
				locals[lvl]++
			}
		}
	}
	p.inputs, p.opens, p.openVecs = inputs, scalarOpens, vecOpens

	// Section layout: inputs, then per level its gates and its linear
	// closure, then the scalar and vector opens.
	prog := &p.prog
	prog.Slots = int(next)
	prog.Lits = p.lits
	prog.Levels = make([]bgw.Level, p.depth+1)
	pos := int32(inputs)
	prog.Inputs = bgw.Span{Lo: 0, Hi: pos}
	mulAt := make([]int32, p.depth+1)
	localAt := make([]int32, p.depth+1)
	for l := range prog.Levels {
		lv := &prog.Levels[l]
		lv.Mul = bgw.Span{Lo: pos, Hi: pos + int32(muls[l])}
		mulAt[l], pos = pos, lv.Mul.Hi
		lv.Local = bgw.Span{Lo: pos, Hi: pos + int32(locals[l])}
		localAt[l], pos = pos, lv.Local.Hi
	}
	prog.Opens = bgw.Span{Lo: pos, Hi: pos + int32(scalarOpens+vecOpens)}
	prog.Code = make([]bgw.Instr, prog.Opens.Hi)
	inAt, openAt, vecOpenAt := int32(0), pos, pos+int32(scalarOpens)

	// Pass 2: emit each node's instruction into its section, in record
	// order within a section.
	if zero >= 0 {
		prog.Code[localAt[0]] = bgw.Instr{Op: bgw.OpZero, Dst: zero}
		localAt[0]++
	}
	slot := func(id int32) int32 { return p.slots[id] }
	slotList := func(ids []int32) int32 {
		off := int32(len(prog.Args))
		for _, id := range ids {
			prog.Args = append(prog.Args, slot(id))
		}
		return off
	}
	for id := range p.nodes {
		nd := p.nodes[id]
		lvl := levels[id]
		in := bgw.Instr{Dst: p.slots[id], A: nd.a, B: nd.b, N: nd.n}
		var at *int32
		switch nd.kind {
		case kZero, kExtVec:
			continue
		case kInput:
			in.Op, in.A, in.B, at = bgw.OpInput, nd.b, nd.a, &inAt
		case kInputVec:
			in.Op, in.A, in.B, at = bgw.OpInputVec, nd.b, nd.a, &inAt
		case kInputParam:
			in.Op, in.A, in.B, at = bgw.OpInputParam, nd.b, nd.a, &inAt
		case kInputVecParam:
			in.Op, in.A, in.B, at = bgw.OpInputVecParam, nd.b, nd.a, &inAt
		case kAdd:
			in.Op, in.A, in.B = bgw.OpAdd, slot(nd.a), slot(nd.b)
		case kSub:
			in.Op, in.A, in.B = bgw.OpSub, slot(nd.a), slot(nd.b)
		case kAddConst:
			in.Op, in.A = bgw.OpAddLit, slot(nd.a)
		case kMulConst:
			in.Op, in.A = bgw.OpMulLit, slot(nd.a)
			prog.Levels[lvl].LocalOps++
		case kAddConstP:
			in.Op, in.A = bgw.OpAddParam, slot(nd.a)
		case kMulConstP:
			in.Op, in.A = bgw.OpMulParam, slot(nd.a)
			prog.Levels[lvl].LocalOps++
		case kAt:
			if slot(nd.a) >= 0 {
				continue // aliased to the element's slot
			}
			in.Op, in.A = bgw.OpAt, slot(nd.a)
		case kAtIndex:
			in.Op, in.A = bgw.OpAtIdx, slot(nd.a)
		case kAddVec:
			in.Op, in.A, in.B = bgw.OpAddVec, slot(nd.a), slot(nd.b)
		case kFromScalars:
			in.Op, in.A = bgw.OpGather, slotList(p.args[nd.b:nd.b+nd.n])
		case kMul:
			in.Op, in.A, in.B, at = bgw.OpMul, slot(nd.a), slot(nd.b), &mulAt[lvl]
			prog.Levels[lvl].MulOps++
		case kInner:
			in.Op, in.A, at = bgw.OpInner, slotList(p.args[nd.b:nd.b+2*nd.n]), &mulAt[lvl]
			prog.Levels[lvl].MulOps += int64(nd.n)
		case kDot:
			in.Op, in.A, in.B, at = bgw.OpDot, slot(nd.a), slot(nd.b), &mulAt[lvl]
			prog.Levels[lvl].MulOps += int64(nd.n)
		case kOpen:
			in = bgw.Instr{Op: bgw.OpOpen, A: slot(nd.a)}
			at = &openAt
		case kOpenVec:
			in = bgw.Instr{Op: bgw.OpOpenVec, A: slot(nd.a), N: nd.n}
			at = &vecOpenAt
		}
		if at == nil {
			at = &localAt[lvl]
		}
		prog.Code[*at] = in
		*at++
	}
	return p, nil
}

// MustCompile is Compile for statically known-good circuits.
func (b *Builder) MustCompile() *Plan {
	p, err := b.Compile()
	if err != nil {
		panic(invariant.Violation("circuit: %v", err))
	}
	return p
}

// Depth returns the circuit's multiplicative depth.
func (p *Plan) Depth() int { return p.depth }

// Gates returns the total node count of the IR.
func (p *Plan) Gates() int { return len(p.nodes) }

// MulGates returns the number of multiplicative gates (each costs one
// degree-reduction resharing; eager execution pays one round per gate).
func (p *Plan) MulGates() int { return p.mulGates }

// Opens returns the number of scalar output gates.
func (p *Plan) Opens() int { return p.opens }

// hasOpens reports whether the plan ends with an opening round.
func (p *Plan) hasOpens() bool { return p.opens > 0 || p.openVecs > 0 }

// Rounds returns the wire rounds of one planned execution: one input
// round (when the plan shares fresh inputs), one batched round per
// multiplicative level, and one batched opening round (when the plan
// reveals outputs). This is the quantity the paper's cost model charges
// 0.1 s for — planned execution makes it a function of depth, not of
// gate count.
func (p *Plan) Rounds() int {
	r := p.depth
	if p.inputs > 0 {
		r++
	}
	if p.hasOpens() {
		r++
	}
	return r
}

// EagerRounds returns the wire rounds of gate-by-gate execution (one
// round per multiplicative gate), the baseline the scheduler improves
// on.
func (p *Plan) EagerRounds() int {
	r := p.mulGates
	if p.inputs > 0 {
		r++
	}
	if p.hasOpens() {
		r++
	}
	return r
}

// EagerFrames returns the frames of gate-by-gate execution: every input
// sends one frame to each of the P−1 other parties, and every
// multiplicative gate and every output (scalar or vector) costs its own
// all-pairs exchange of P(P−1) frames.
func (p *Plan) EagerFrames() int {
	pairs := p.p * (p.p - 1)
	return p.inputs*(p.p-1) + (p.mulGates+p.opens+p.openVecs)*pairs
}
