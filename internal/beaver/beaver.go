// Package beaver implements a second semi-honest MPC backend for SQM:
// additive secret sharing with Beaver multiplication triples in the
// offline/online paradigm. The paper uses BGW but notes that "one can
// replace BGW with any other MPC protocol without affecting the DP
// guarantees" (§II); this engine demonstrates that replaceability and
// quantifies the trade-off: multiplications consume pre-computed
// triples, making the *online* phase two openings per product — far
// lighter than BGW's resharing — at the cost of an offline phase.
//
// Triples are produced by a TripleSource. BGWSource derives them with
// no trusted party: a and b are sums of locally drawn randomness
// (additive sharing of a uniform value is non-interactive), and
// c = a·b is computed by one BGW multiplication whose Shamir output
// converts to an additive sharing locally (party i holds λ_i·s_i, and
// Σ_i λ_i·s_i is the secret). DealerSource hands out triples from a
// central sampler — a test fixture that models a setup phase, not a
// deployment option under the paper's threat model.
package beaver

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// Triple is an additively shared Beaver triple: per-party shares of
// uniform a, b and of c = a·b.
type Triple struct {
	A, B, C []field.Elem // one share per party
}

// TripleSource produces Beaver triples for P parties.
type TripleSource interface {
	// Triples returns n fresh triples. The cost of producing them is
	// the offline phase; engines meter it separately.
	Triples(n int) ([]Triple, error)
}

// DealerSource samples triples centrally. For tests and cost modeling
// only — it is NOT deployable under the no-trusted-party threat model.
type DealerSource struct {
	Parties int
	RNG     *randx.RNG
}

// Triples implements TripleSource.
func (d *DealerSource) Triples(n int) ([]Triple, error) {
	if d.Parties < 2 {
		return nil, fmt.Errorf("beaver: dealer needs >= 2 parties")
	}
	out := make([]Triple, n)
	for i := range out {
		a, b := field.Rand(d.RNG), field.Rand(d.RNG)
		out[i] = Triple{
			A: additiveShares(a, d.Parties, d.RNG),
			B: additiveShares(b, d.Parties, d.RNG),
			C: additiveShares(field.Mul(a, b), d.Parties, d.RNG),
		}
	}
	return out, nil
}

// BGWSource produces triples without any trusted party, using one BGW
// multiplication per triple and the local Shamir→additive conversion.
// It runs against any bgw.Evaluator backend — the monolithic engine or
// the party-actor engine over a transport.
type BGWSource struct {
	eng  bgw.Evaluator
	rngs []*randx.RNG
	lag  []field.Elem
}

// NewBGWSource wires a source to a BGW evaluator (which meters the
// offline communication on its own stats).
func NewBGWSource(eng bgw.Evaluator, seed uint64) *BGWSource {
	root := randx.New(seed ^ 0xbea4)
	rngs := make([]*randx.RNG, eng.Parties())
	for i := range rngs {
		rngs[i] = root.Fork()
	}
	return &BGWSource{
		eng:  eng,
		rngs: rngs,
		lag:  shamir.LagrangeAtZero(shamir.PartyPoints(eng.Parties())),
	}
}

// Triples implements TripleSource: a and b are sums of per-party local
// randomness; c comes from one BGW multiplication on those inputs. The
// whole batch is recorded as one depth-1 plan, so producing n triples
// costs two wire rounds (input, batched resharing) instead of 2n.
func (s *BGWSource) Triples(n int) ([]Triple, error) {
	p := s.eng.Parties()
	out := make([]Triple, n)
	b := circuit.NewBuilder(p, s.eng.Threshold())
	cH := make([]bgw.Val, n)
	for i := range out {
		aShares := make([]field.Elem, p)
		bShares := make([]field.Elem, p)
		// Each party draws its additive share locally (free) and
		// inputs it into BGW to obtain Shamir sharings of a and b.
		var aS, bS bgw.Val
		for j := 0; j < p; j++ {
			aShares[j] = field.Rand(s.rngs[j])
			bShares[j] = field.Rand(s.rngs[j])
			ja := b.InputElem(j, aShares[j])
			jb := b.InputElem(j, bShares[j])
			if aS == nil {
				aS, bS = ja, jb
			} else {
				aS, bS = b.Add(aS, ja), b.Add(bS, jb)
			}
		}
		cH[i] = b.Mul(aS, bS)
		out[i] = Triple{A: aShares, B: bShares}
	}
	plan, err := b.Compile()
	if err != nil {
		return nil, err
	}
	res, err := plan.Execute(s.eng, circuit.Bindings{})
	if err != nil {
		return nil, err
	}
	for i := range out {
		// Local Shamir→additive conversion: party j holds λ_j·share_j.
		out[i].C = s.eng.AdditiveShares(res.ValOf(cH[i]), s.lag)
	}
	if err := s.eng.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// additiveShares splits v into p uniformly random addends.
func additiveShares(v field.Elem, p int, rng *randx.RNG) []field.Elem {
	out := make([]field.Elem, p)
	var sum field.Elem
	for i := 0; i < p-1; i++ {
		out[i] = field.Rand(rng)
		sum = field.Add(sum, out[i])
	}
	out[p-1] = field.Sub(v, sum)
	return out
}
