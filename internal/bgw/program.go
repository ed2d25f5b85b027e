package bgw

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/invariant"
)

// Op is one instruction of the party-local share kernel. A compiled
// plan (package circuit) lowers to a Program of Ops; both engines run
// the same kernel over one party's arena column at a time: the
// monolithic engine loops it over its P columns, each actor party runs
// it on its own.
//
// Operands address the party's arena column s by slot. A vector
// operand is a ref: a ref >= 0 names the arena range starting at that
// slot, a ref < 0 names the bound external vector ^ref.
type Op uint8

const (
	// Local (linear) instructions; run by Evaluator.RunLocal.
	OpZero     Op = iota // s[Dst] = 0
	OpAdd                // s[Dst] = s[A] + s[B]
	OpSub                // s[Dst] = s[A] − s[B]
	OpAddLit             // s[Dst] = s[A] + Lits[B]
	OpMulLit             // s[Dst] = Lits[B]·s[A]
	OpAddParam           // s[Dst] = s[A] + consts[B]
	OpMulParam           // s[Dst] = consts[B]·s[A]
	OpAt                 // s[Dst] = vec(A)[B]
	OpAtIdx              // s[Dst] = vec(A)[indices[B]]
	OpAddVec             // s[Dst : Dst+N] = vec(A) + vec(B)
	OpGather             // s[Dst+k] = s[Args[A+k]] for k < N

	// Multiplicative gates; run by RunMul, whose degree reduction writes
	// the fresh degree-t sharing to s[Dst].
	OpMul   // s[A]·s[B]
	OpInner // Σ_k s[Args[A+k]]·s[Args[A+N+k]], k < N
	OpDot   // ⟨vec(A), vec(B)⟩ over N elements

	// Input sharing; run by ShareInputs. Party B owns the value.
	OpInput         // Lits[A] into s[Dst]
	OpInputParam    // inputs[A] into s[Dst]
	OpInputVec      // Lits[A : A+N] into s[Dst : Dst+N]
	OpInputVecParam // inputVecs[A] (N elements) into s[Dst : Dst+N]

	// Outputs; run by RunOpen. Scalar opens precede vector opens.
	OpOpen    // s[A]
	OpOpenVec // vec(A), N elements
)

// Instr is one kernel instruction; fields are interpreted per Op. The
// struct holds no pointers, so a compiled Program's code is never
// scanned by the garbage collector.
type Instr struct {
	Op           Op
	Dst, A, B, N int32
}

// Span is a half-open range [Lo, Hi) of Program.Code.
type Span struct{ Lo, Hi int32 }

// Level is one multiplicative level of a Program: its gates (empty for
// level 0) and the linear closure that follows them. MulOps and
// LocalOps are the per-party local field multiplications of the two
// parts, fixed by the plan's shape.
type Level struct {
	Mul, Local       Span
	MulOps, LocalOps int64
}

// Program is a compiled plan in the kernel's instruction set: flat,
// slot-addressed and pointer-free apart from its slice headers. It is
// immutable once built and may run on any number of engines.
type Program struct {
	Slots  int          // arena width per party
	Code   []Instr      // inputs, then each level's Mul and Local spans, then opens
	Args   []int32      // slot lists of OpInner and OpGather
	Lits   []field.Elem // literal constants and literal inputs
	Inputs Span
	Levels []Level // Levels[0] has no Mul span
	Opens  Span
}

// Binding supplies one execution's parameters to Evaluator.Begin, each
// slice indexed by declaration order. ExtVecs must be KeepVec handles
// of the engine the program runs on (a foreign handle is an invariant
// violation).
type Binding struct {
	Consts    []int64
	Inputs    []int64
	InputVecs [][]int64
	ExtVecs   []Vec
	Indices   []int
}

// ErrNonCanonical reports a peer payload carrying a field element
// outside [0, 2^61−1). Field arithmetic assumes canonical operands, so
// such a value would corrupt results silently; parties reject the
// frame instead.
var ErrNonCanonical = errors.New("bgw: non-canonical field element")

// decodeElems is the one decode at the party trust boundary: it checks
// the payload length and that every element is canonical before
// writing the n = len(dst) values into dst. Input, reshare and open
// frames all pass through it.
func decodeElems(dst []field.Elem, buf []byte, from int, what string) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("bad %s payload from party %d: %d bytes for %d values", what, from, len(buf), len(dst))
	}
	for m := range dst {
		v := binary.BigEndian.Uint64(buf[8*m:])
		if v >= field.Modulus {
			return fmt.Errorf("%w in %s payload from party %d", ErrNonCanonical, what, from)
		}
		dst[m] = field.Elem(v)
	}
	return nil
}

// kernel is one party's view of an execution: its arena column, its
// columns of the bound external vectors, and the execution's bound
// parameters (an input's value is read by its owner only). The input,
// local and multiplicative steps of both engines run through it.
type kernel struct {
	prog      *Program
	s         []field.Elem
	ext       [][]field.Elem
	consts    []field.Elem
	indices   []int
	inputs    []int64
	inputVecs [][]int64
}

// width is the number of values an input instruction shares.
func (in *Instr) width() int32 {
	if in.Op == OpInputVec || in.Op == OpInputVecParam {
		return in.N
	}
	return 1
}

// input returns element j of an input instruction's value (read by the
// owner only).
func (k *kernel) input(in *Instr, j int32) field.Elem {
	switch in.Op {
	case OpInputParam:
		return field.FromInt64(k.inputs[in.A])
	case OpInputVec:
		return k.prog.Lits[in.A+j]
	case OpInputVecParam:
		return field.FromInt64(k.inputVecs[in.A][j])
	}
	return k.prog.Lits[in.A]
}

// vec resolves a vector ref of n elements.
func (k *kernel) vec(ref, n int32) []field.Elem {
	if ref >= 0 {
		return k.s[ref : ref+n]
	}
	return k.ext[^ref][:n]
}

// local runs a span of linear instructions on the party's column.
func (k *kernel) local(code []Instr) {
	s, lits, args := k.s, k.prog.Lits, k.prog.Args
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpZero:
			s[in.Dst] = 0
		case OpAdd:
			s[in.Dst] = field.Add(s[in.A], s[in.B])
		case OpSub:
			s[in.Dst] = field.Sub(s[in.A], s[in.B])
		case OpAddLit:
			s[in.Dst] = field.Add(s[in.A], lits[in.B])
		case OpMulLit:
			s[in.Dst] = field.Mul(s[in.A], lits[in.B])
		case OpAddParam:
			s[in.Dst] = field.Add(s[in.A], k.consts[in.B])
		case OpMulParam:
			s[in.Dst] = field.Mul(s[in.A], k.consts[in.B])
		case OpAt:
			s[in.Dst] = k.vec(in.A, in.N)[in.B]
		case OpAtIdx:
			s[in.Dst] = k.vec(in.A, in.N)[k.indices[in.B]]
		case OpAddVec:
			field.AddVec(s[in.Dst:in.Dst+in.N], k.vec(in.A, in.N), k.vec(in.B, in.N))
		case OpGather:
			dst := s[in.Dst : in.Dst+in.N]
			for j, slot := range args[in.A : in.A+in.N] {
				dst[j] = s[slot]
			}
		default:
			panic(invariant.Violation("bgw: opcode %d in local code", in.Op))
		}
	}
}

// mul computes each gate's local degree-2t product into highs.
func (k *kernel) mul(code []Instr, highs []field.Elem) {
	s, args := k.s, k.prog.Args
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpMul:
			highs[i] = field.Mul(s[in.A], s[in.B])
		case OpInner:
			var acc field.Elem
			as, bs := args[in.A:in.A+in.N], args[in.A+in.N:in.A+2*in.N]
			for j, a := range as {
				acc = field.Add(acc, field.Mul(s[a], s[bs[j]]))
			}
			highs[i] = acc
		case OpDot:
			highs[i] = field.DotAcc(0, k.vec(in.A, in.N), k.vec(in.B, in.N))
		default:
			panic(invariant.Violation("bgw: opcode %d in level code", in.Op))
		}
	}
}

// code returns the instructions of span sp.
func (p *Program) code(sp Span) []Instr { return p.Code[sp.Lo:sp.Hi] }
