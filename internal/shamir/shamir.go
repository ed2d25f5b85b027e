// Package shamir implements Shamir's secret sharing over the field of
// package field: the building block of the BGW protocol (Appendix B of
// the paper). A secret s is hidden as the constant term of a random
// degree-t polynomial; party i receives the evaluation at x = i. Any
// t+1 shares reconstruct s by Lagrange interpolation at 0, while any t
// shares are jointly uniform and carry no information about s.
package shamir

import (
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// Share splits secret into n shares with threshold t (any t+1 shares
// reconstruct; t or fewer reveal nothing). Party i's share is the
// evaluation of the random polynomial at x = i+1.
func Share(secret field.Elem, t, n int, rng *randx.RNG) []field.Elem {
	if t < 0 || n <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, n))
	}
	shares := make([]field.Elem, n)
	ShareInto(shares, secret, t, rng)
	return shares
}

// ShareInto is Share writing the len(dst) shares into dst instead of a
// fresh slice. It draws exactly the randomness Share draws, so the two
// are interchangeable on the same stream; thresholds up to 15 keep the
// polynomial on the stack and allocate nothing.
func ShareInto(dst []field.Elem, secret field.Elem, t int, rng *randx.RNG) {
	if t < 0 || len(dst) <= t {
		panic(invariant.Violation("shamir: invalid threshold t=%d for n=%d", t, len(dst)))
	}
	var buf [16]field.Elem
	coefs := buf[:0]
	if t+1 > len(buf) {
		coefs = make([]field.Elem, 0, t+1)
	}
	coefs = append(coefs, secret)
	for i := 1; i <= t; i++ {
		coefs = append(coefs, field.Rand(rng))
	}
	for i := range dst {
		dst[i] = evalPoly(coefs, field.Elem(uint64(i+1)))
	}
}

// evalPoly evaluates the polynomial with the given coefficients (low
// order first) at x by Horner's rule.
func evalPoly(coefs []field.Elem, x field.Elem) field.Elem {
	var v field.Elem
	for i := len(coefs) - 1; i >= 0; i-- {
		v = field.Add(field.Mul(v, x), coefs[i])
	}
	return v
}

// LagrangeAtZero returns the interpolation weights λ_i such that
// f(0) = Σ_i λ_i · f(x_i) for any polynomial f of degree < len(xs),
// where xs are distinct non-zero evaluation points.
func LagrangeAtZero(xs []field.Elem) []field.Elem {
	w := make([]field.Elem, len(xs))
	for i, xi := range xs {
		num := field.Elem(1)
		den := field.Elem(1)
		for j, xj := range xs {
			if i == j {
				continue
			}
			num = field.Mul(num, xj)                // (0 - x_j) up to sign
			den = field.Mul(den, field.Sub(xj, xi)) // (x_i - x_j) with matching sign
		}
		w[i] = field.Mul(num, field.Inv(den))
	}
	return w
}

// PartyPoints returns the canonical evaluation points 1..n used by
// Share.
func PartyPoints(n int) []field.Elem {
	xs := make([]field.Elem, n)
	for i := range xs {
		xs[i] = field.Elem(uint64(i + 1))
	}
	return xs
}

// Reconstruct recovers the secret from shares at the given points; it
// needs at least degree+1 points for a degree-d sharing and trusts the
// caller to pass consistent shares (semi-honest model).
func Reconstruct(points, shares []field.Elem) field.Elem {
	if len(points) != len(shares) {
		panic(invariant.Violation("shamir: points/shares length mismatch"))
	}
	w := LagrangeAtZero(points)
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(w[i], sh))
	}
	return s
}

// ReconstructWithWeights recovers the secret using precomputed Lagrange
// weights (the hot path in BGW, where the party set never changes).
func ReconstructWithWeights(weights, shares []field.Elem) field.Elem {
	if len(weights) != len(shares) {
		panic(invariant.Violation("shamir: weights/shares length mismatch"))
	}
	var s field.Elem
	for i, sh := range shares {
		s = field.Add(s, field.Mul(weights[i], sh))
	}
	return s
}
