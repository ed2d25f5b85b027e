package bgw

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/shamir"
)

// SharedVec is a vector of secret-shared values stored party-major:
// shares[i][k] is party i's share of element k. Bulk layout keeps the
// hot loops of the Gram-matrix and gradient protocols allocation-free.
type SharedVec struct {
	eng    *Engine
	shares [][]field.Elem // [party][element]
}

// Len returns the number of shared elements.
func (v *SharedVec) Len() int { return len(v.shares[0]) }

// InputVec has party owner secret-share the signed vector vs. One
// batched frame per receiving party is metered, carrying one logical
// message per element.
func (e *Engine) InputVec(owner int, vs []int64) *SharedVec {
	e.checkParty(owner)
	out := &SharedVec{eng: e, shares: make([][]field.Elem, e.p)}
	for i := range out.shares {
		out.shares[i] = make([]field.Elem, len(vs))
	}
	rng := e.rngs[owner]
	for k, v := range vs {
		sh := shamir.Share(field.FromInt64(v), e.t, e.p, rng)
		for i := 0; i < e.p; i++ {
			out.shares[i][k] = sh[i]
		}
	}
	e.meterInput(int64(len(vs)))
	return out
}

// At extracts element k as a scalar Shared (copies P field elements).
func (v *SharedVec) At(k int) *Shared {
	sh := make([]field.Elem, len(v.shares))
	for i := range sh {
		sh[i] = v.shares[i][k]
	}
	return &Shared{eng: v.eng, shares: sh}
}

// AddVec returns the element-wise sum a + b; purely local.
func (e *Engine) AddVec(a, b *SharedVec) *SharedVec {
	e.checkSameVec(a, b)
	out := e.zeroVec(a.Len())
	for i := 0; i < e.p; i++ {
		field.AddVec(out.shares[i], a.shares[i], b.shares[i])
	}
	return out
}

// SubVec returns a − b; purely local.
func (e *Engine) SubVec(a, b *SharedVec) *SharedVec {
	e.checkSameVec(a, b)
	out := e.zeroVec(a.Len())
	for i := 0; i < e.p; i++ {
		field.SubVec(out.shares[i], a.shares[i], b.shares[i])
	}
	return out
}

// MulConstVec returns c·a; purely local.
func (e *Engine) MulConstVec(a *SharedVec, c int64) *SharedVec {
	ce := field.FromInt64(c)
	out := e.zeroVec(a.Len())
	for i := 0; i < e.p; i++ {
		field.MulConstVec(out.shares[i], a.shares[i], ce)
	}
	e.stats.FieldOps += int64(e.p * a.Len())
	return out
}

// AddConstVec returns a + c (the same constant added to every element);
// purely local.
func (e *Engine) AddConstVec(a *SharedVec, c int64) *SharedVec {
	ce := field.FromInt64(c)
	out := e.zeroVec(a.Len())
	for i := 0; i < e.p; i++ {
		field.AddConstVec(out.shares[i], a.shares[i], ce)
	}
	return out
}

// LinComb returns Σ_j coefs[j]·vecs[j], a local operation since the
// coefficients are public (this is how the LR protocol folds the public
// weight vector into the shared features without any resharing).
func (e *Engine) LinComb(vecs []*SharedVec, coefs []int64) *SharedVec {
	if len(vecs) == 0 || len(vecs) != len(coefs) {
		panic(invariant.Violation("bgw: LinComb needs matching non-empty vecs/coefs"))
	}
	n := vecs[0].Len()
	out := e.zeroVec(n)
	for j, v := range vecs {
		e.checkVec(v)
		if v.Len() != n {
			panic(invariant.Violation("bgw: LinComb length mismatch"))
		}
		c := field.FromInt64(coefs[j])
		if c == 0 {
			continue
		}
		for i := 0; i < e.p; i++ {
			field.MulAddVec(out.shares[i], v.shares[i], c)
		}
		e.stats.FieldOps += int64(e.p * n)
	}
	return out
}

// DotSubset returns a sharing of Σ_{k∈idx} a[k]·b[k] with the fused
// inner-product gate (one resharing regardless of |idx|). A nil idx
// means all elements.
func (e *Engine) DotSubset(a, b *SharedVec, idx []int) *Shared {
	e.checkSameVec(a, b)
	acc := make([]field.Elem, e.p)
	if idx == nil {
		n := a.Len()
		for i := 0; i < e.p; i++ {
			acc[i] = field.DotAcc(0, a.shares[i], b.shares[i])
		}
		e.stats.FieldOps += int64(e.p * n)
	} else {
		for i := 0; i < e.p; i++ {
			ai, bi := a.shares[i], b.shares[i]
			var s field.Elem
			for _, k := range idx {
				s = field.Add(s, field.Mul(ai[k], bi[k]))
			}
			acc[i] = s
		}
		e.stats.FieldOps += int64(e.p * len(idx))
	}
	return e.reshare(acc)
}

// Dot returns a sharing of the full inner product ⟨a, b⟩.
func (e *Engine) Dot(a, b *SharedVec) *Shared {
	return e.DotSubset(a, b, nil)
}

// OpenVec reveals every element; metered as one batched opening.
func (e *Engine) OpenVec(v *SharedVec) []int64 {
	e.checkVec(v)
	n := v.Len()
	out := make([]int64, n)
	sh := make([]field.Elem, e.p)
	for k := 0; k < n; k++ {
		for i := 0; i < e.p; i++ {
			sh[i] = v.shares[i][k]
		}
		out[k] = field.ToInt64(shamir.ReconstructWithWeights(e.weights, sh))
	}
	e.meterOpen(int64(n))
	return out
}

// FromScalars packs scalar shares into a vector (no communication).
func (e *Engine) FromScalars(xs []*Shared) *SharedVec {
	out := e.zeroVec(len(xs))
	for k, x := range xs {
		if x.eng != e {
			panic(invariant.Violation("bgw: foreign share"))
		}
		for i := 0; i < e.p; i++ {
			out.shares[i][k] = x.shares[i]
		}
	}
	return out
}

func (e *Engine) zeroVec(n int) *SharedVec {
	out := &SharedVec{eng: e, shares: make([][]field.Elem, e.p)}
	for i := range out.shares {
		out.shares[i] = make([]field.Elem, n)
	}
	return out
}

func (e *Engine) checkVec(a *SharedVec) {
	if a.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
}

func (e *Engine) checkSameVec(a, b *SharedVec) {
	e.checkVec(a)
	e.checkVec(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
}
