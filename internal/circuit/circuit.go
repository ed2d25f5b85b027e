// Package circuit compiles SQM protocols to level-scheduled execution
// plans. A Builder records a protocol's gates — inputs, local linear
// operations, multiplications, fused inner products and output gates —
// into a DAG IR; Compile levels the DAG by multiplicative depth and
// lowers it to a bgw.Program; the resulting Plan executes on either BGW
// engine (bgw.Evaluator), running each level as ONE batched
// communication round — all of a level's degree reductions travel in a
// single reshare exchange (one frame per ordered party pair), and the
// round count derives from the plan's structure instead of hand-placed
// AdvanceRound calls. Recording and compiling are the only way to run
// BGW: the engines expose no per-gate operations.
//
// Protocols build their plan once and re-execute it per epoch or batch
// with fresh bindings: public constants (ConstParam), per-run secret
// inputs (InputParam/InputVecParam), pre-existing engine vectors
// (ExtVec) and element indices into them (IndexParam) are plan
// parameters filled in at execution time.
//
// Because BGW computes exactly, opened values are bit-identical across
// gate orderings and batchings — the plan executor is free to reorder
// and fuse communication without changing any output.
package circuit

import (
	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/invariant"
)

// nodeKind enumerates the IR node types.
type nodeKind uint8

const (
	kZero nodeKind = iota
	kInput
	kInputVec
	kInputParam
	kInputVecParam
	kExtVec
	kAdd
	kSub
	kAddConst
	kMulConst
	kAddConstP
	kMulConstP
	kMul
	kInner
	kDot
	kAt
	kAtIndex
	kAddVec
	kFromScalars
	kOpen
	kOpenVec
)

// isMul reports whether the node costs a degree-reduction resharing.
func (k nodeKind) isMul() bool { return k == kMul || k == kInner || k == kDot }

// isInput reports whether the node costs the input sharing round.
func (k nodeKind) isInput() bool {
	switch k {
	case kInput, kInputVec, kInputParam, kInputVecParam:
		return true
	}
	return false
}

// node is one IR operation: 16 bytes and pointer-free, so a recorded
// circuit and the plan compiled from it are never scanned by the
// garbage collector. Fields are interpreted per kind:
//
//	kInput                     a owner, b literal index
//	kInputVec                  a owner, b first literal, n length
//	kInputParam                a owner, b input param
//	kInputVecParam             a owner, b input-vec param, n length
//	kExtVec                    b external param, n length
//	kAdd, kSub, kMul           a, b operands
//	kAddConst, kMulConst       a operand, b literal index
//	kAddConstP, kMulConstP     a operand, b const param
//	kDot, kAddVec              a, b vector operands, n length
//	kAt                        a vector, b element, n vector length
//	kAtIndex                   a vector, b index param, n vector length
//	kInner                     b offset into args (n ids of A, then n of B)
//	kFromScalars               b offset into args, n length
//	kOpen                      a operand
//	kOpenVec                   a vector operand, n length
type node struct {
	kind    nodeKind
	a, b, n int32
}

// Val is a handle to one recorded scalar node. It is passed around as a
// bgw.Val, the type Result.ValOf maps it to an engine handle of.
type Val struct {
	b  *Builder
	id int
}

// Vec is a handle to one recorded vector node.
type Vec struct {
	b  *Builder
	id int
	n  int
}

// Len returns the recorded vector length.
func (v Vec) Len() int { return v.n }

// ConstID names one public-constant parameter of a plan.
type ConstID int

// IndexID names one element-index parameter of a plan (see AtIndex).
type IndexID int

// Builder records the gate stream of one protocol run into a DAG. It
// never sees a value: OpenIdx and OpenVecIdx record output gates whose
// values come from Result.Opened and Result.OpenedVec after execution.
type Builder struct {
	p, t  int
	nodes []node
	args  []int32      // operand lists of kInner and kFromScalars
	lits  []field.Elem // literal inputs and constants, already in the field

	nConsts   int
	inVecLens []int32 // length of each input-vec param
	extLens   []int32 // length of each external vector
	idxLimits []int32 // per index param: the shortest vector it indexes
	nInputs   int
	nOpens    int
	nOpenVecs int
}

// NewBuilder starts recording a circuit for a P-party deployment with
// threshold t (0 means floor((P−1)/2), matching bgw.Config).
func NewBuilder(parties, threshold int) *Builder {
	if threshold == 0 {
		threshold = (parties - 1) / 2
	}
	return &Builder{p: parties, t: threshold}
}

func (b *Builder) add(n node) int {
	id := len(b.nodes)
	b.nodes = append(b.nodes, n)
	return id
}

func (b *Builder) scalar(n node) bgw.Val { return Val{b: b, id: b.add(n)} }

func (b *Builder) vector(n node) bgw.Vec {
	return Vec{b: b, id: b.add(n), n: int(n.n)}
}

// lit appends a literal and returns its index.
func (b *Builder) lit(e field.Elem) int32 {
	b.lits = append(b.lits, e)
	return int32(len(b.lits) - 1)
}

func (b *Builder) val(x bgw.Val) int32 {
	v, ok := x.(Val)
	if !ok || v.b != b {
		panic(invariant.Violation("circuit: value handle from a different builder"))
	}
	return int32(v.id)
}

func (b *Builder) vec(x bgw.Vec) Vec {
	v, ok := x.(Vec)
	if !ok || v.b != b {
		panic(invariant.Violation("circuit: vector handle from a different builder"))
	}
	return v
}

func (b *Builder) checkParty(i int) {
	if i < 0 || i >= b.p {
		panic(invariant.Violation("circuit: party %d out of range [0,%d)", i, b.p))
	}
}

// ---- plan parameters ----

// ConstParam declares a public-constant parameter, bound per execution
// via Bindings.Consts. Use with AddConstP/MulConstP for coefficients
// that change between runs of the same circuit shape.
func (b *Builder) ConstParam() ConstID {
	id := ConstID(b.nConsts)
	b.nConsts++
	return id
}

// InputParam declares a per-execution secret scalar input owned by
// party owner, bound via Bindings.Inputs in declaration order.
func (b *Builder) InputParam(owner int) bgw.Val {
	b.checkParty(owner)
	b.nInputs++
	return b.scalar(node{kind: kInputParam, a: int32(owner), b: int32(b.nInputs - 1)})
}

// InputVecParam declares a per-execution secret vector input of length
// n owned by party owner, bound via Bindings.InputVecs.
func (b *Builder) InputVecParam(owner, n int) bgw.Vec {
	b.checkParty(owner)
	b.inVecLens = append(b.inVecLens, int32(n))
	return b.vector(node{kind: kInputVecParam, a: int32(owner), b: int32(len(b.inVecLens) - 1), n: int32(n)})
}

// ExtVec declares a vector of length n that already lives inside the
// executing engine (a handle from Result.VecOf of an earlier plan),
// bound via Bindings.ExtVecs. External vectors join the DAG at level 0
// without costing the input round; AtIndex reads rows out of them.
func (b *Builder) ExtVec(n int) bgw.Vec {
	b.extLens = append(b.extLens, int32(n))
	return b.vector(node{kind: kExtVec, b: int32(len(b.extLens) - 1), n: int32(n)})
}

// IndexParam declares an element-index parameter, bound per execution
// via Bindings.Indices. Use with AtIndex to read the rows of a batch
// whose membership changes between runs of the same circuit shape.
func (b *Builder) IndexParam() IndexID {
	b.idxLimits = append(b.idxLimits, -1)
	return IndexID(len(b.idxLimits) - 1)
}

// AtIndex records the element extraction v[i] for the index parameter
// i; local, like At.
func (b *Builder) AtIndex(v bgw.Vec, i IndexID) bgw.Val {
	cv := b.vec(v)
	if int(i) < 0 || int(i) >= len(b.idxLimits) {
		panic(invariant.Violation("circuit: undeclared index param %d", i))
	}
	if l := &b.idxLimits[i]; *l < 0 || int32(cv.n) < *l {
		*l = int32(cv.n)
	}
	return b.scalar(node{kind: kAtIndex, a: int32(cv.id), b: int32(i), n: int32(cv.n)})
}

// AddConstP returns a sharing of a + c for the constant parameter c.
func (b *Builder) AddConstP(a bgw.Val, c ConstID) bgw.Val {
	if int(c) >= b.nConsts {
		panic(invariant.Violation("circuit: undeclared const param %d", c))
	}
	return b.scalar(node{kind: kAddConstP, a: b.val(a), b: int32(c)})
}

// MulConstP returns a sharing of c·a for the constant parameter c.
func (b *Builder) MulConstP(a bgw.Val, c ConstID) bgw.Val {
	if int(c) >= b.nConsts {
		panic(invariant.Violation("circuit: undeclared const param %d", c))
	}
	return b.scalar(node{kind: kMulConstP, a: b.val(a), b: int32(c)})
}

// OpenIdx records an output gate for v and returns its index into
// Result.Opened.
func (b *Builder) OpenIdx(v bgw.Val) int {
	b.add(node{kind: kOpen, a: b.val(v)})
	b.nOpens++
	return b.nOpens - 1
}

// OpenVecIdx records a vector output gate and returns its index into
// Result.OpenedVec.
func (b *Builder) OpenVecIdx(v bgw.Vec) int {
	cv := b.vec(v)
	b.add(node{kind: kOpenVec, a: int32(cv.id), n: int32(cv.n)})
	b.nOpenVecs++
	return b.nOpenVecs - 1
}

// ---- gates ----

// Input records a literal secret input.
func (b *Builder) Input(owner int, v int64) bgw.Val {
	return b.InputElem(owner, field.FromInt64(v))
}

// InputElem records a literal raw-field input.
func (b *Builder) InputElem(owner int, e field.Elem) bgw.Val {
	b.checkParty(owner)
	return b.scalar(node{kind: kInput, a: int32(owner), b: b.lit(e)})
}

// InputVec records a literal secret vector input.
func (b *Builder) InputVec(owner int, vs []int64) bgw.Vec {
	b.checkParty(owner)
	first := int32(len(b.lits))
	for _, v := range vs {
		b.lit(field.FromInt64(v))
	}
	return b.vector(node{kind: kInputVec, a: int32(owner), b: first, n: int32(len(vs))})
}

// Zero records a trivial sharing of 0.
func (b *Builder) Zero() bgw.Val { return b.scalar(node{kind: kZero}) }

// Add records a + b.
func (b *Builder) Add(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kAdd, a: b.val(a), b: b.val(c)})
}

// Sub records a − b.
func (b *Builder) Sub(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kSub, a: b.val(a), b: b.val(c)})
}

// AddConst records a + c.
func (b *Builder) AddConst(a bgw.Val, c int64) bgw.Val {
	return b.scalar(node{kind: kAddConst, a: b.val(a), b: b.lit(field.FromInt64(c))})
}

// MulConst records c·a.
func (b *Builder) MulConst(a bgw.Val, c int64) bgw.Val {
	return b.scalar(node{kind: kMulConst, a: b.val(a), b: b.lit(field.FromInt64(c))})
}

// Mul records the multiplicative gate a·b.
func (b *Builder) Mul(a, c bgw.Val) bgw.Val {
	return b.scalar(node{kind: kMul, a: b.val(a), b: b.val(c)})
}

// InnerProduct records the fused gate Σ_k as[k]·bs[k].
func (b *Builder) InnerProduct(as, bs []bgw.Val) bgw.Val {
	if len(as) != len(bs) {
		panic(invariant.Violation("circuit: InnerProduct length mismatch"))
	}
	off := int32(len(b.args))
	for _, x := range as {
		b.args = append(b.args, b.val(x))
	}
	for _, x := range bs {
		b.args = append(b.args, b.val(x))
	}
	return b.scalar(node{kind: kInner, b: off, n: int32(len(as))})
}

// At records the element extraction v[k].
func (b *Builder) At(v bgw.Vec, k int) bgw.Val {
	cv := b.vec(v)
	if k < 0 || k >= cv.n {
		panic(invariant.Violation("circuit: vector index out of range"))
	}
	return b.scalar(node{kind: kAt, a: int32(cv.id), b: int32(k), n: int32(cv.n)})
}

// AddVec records the element-wise sum a + b.
func (b *Builder) AddVec(a, c bgw.Vec) bgw.Vec {
	ca, cc := b.vec(a), b.vec(c)
	if ca.n != cc.n {
		panic(invariant.Violation("circuit: vector length mismatch"))
	}
	return b.vector(node{kind: kAddVec, a: int32(ca.id), b: int32(cc.id), n: int32(ca.n)})
}

// Dot records the fused inner product ⟨a, b⟩.
func (b *Builder) Dot(a, c bgw.Vec) bgw.Val {
	ca, cc := b.vec(a), b.vec(c)
	if ca.n != cc.n {
		panic(invariant.Violation("circuit: vector length mismatch"))
	}
	return b.scalar(node{kind: kDot, a: int32(ca.id), b: int32(cc.id), n: int32(ca.n)})
}

// FromScalars records the packing of scalars into a vector.
func (b *Builder) FromScalars(xs []bgw.Val) bgw.Vec {
	off := int32(len(b.args))
	for _, x := range xs {
		b.args = append(b.args, b.val(x))
	}
	return b.vector(node{kind: kFromScalars, b: off, n: int32(len(xs))})
}
