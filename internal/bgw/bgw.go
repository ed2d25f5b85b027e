// Package bgw implements the BGW protocol (Ben-Or, Goldwasser, Wigderson
// 1988) for semi-honest parties over the field of package field, as used
// by SQM (§II and Appendix B of the paper):
//
//  1. each party secret-shares its private inputs with Shamir's scheme,
//  2. addition and scaling are local; each multiplication takes the
//     pointwise product of shares (a degree-2t sharing) followed by a
//     degree-reduction resharing round,
//  3. outputs are opened by exchanging shares and interpolating at 0.
//
// The engine simulates all P parties in one process. It faithfully
// performs the share arithmetic (so outputs are bit-exact with the
// plaintext computation) and meters the communication: every resharing
// or opening advances a round counter, and simulated network time is
// rounds × Latency, matching the paper's experimental setup of a fixed
// 0.1 s message-passing cost.
package bgw

import (
	"fmt"
	"time"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// DefaultLatency is the per-round message-passing cost used by the
// paper's simulation (§VI).
const DefaultLatency = 100 * time.Millisecond

// Config describes a BGW deployment.
type Config struct {
	Parties   int           // P >= 2*Threshold + 1
	Threshold int           // t; 0 means floor((P-1)/2)
	Latency   time.Duration // per communication round; 0 means DefaultLatency
	Seed      uint64        // seeds the per-party private randomness
	Recorder  obs.Recorder  // telemetry sink; nil disables at zero cost
	// RecvTimeout bounds every blocking receive of the actor engine's
	// parties: a peer that stays silent past the deadline surfaces as a
	// transport.ErrTimeout party failure instead of a hung protocol.
	// 0 keeps receives blocking (the trusted-simulation default).
	RecvTimeout time.Duration
	// Workers bounds the worker pool that parallelizes the local share
	// arithmetic of batched rounds (MulBatch, DotBatch, reshare folds).
	// 0 means runtime.NumCPU(); 1 forces the serial path; explicit
	// values are honored as given so a pinned pool size chunks — and
	// draws randomness — identically on every machine. Worker count
	// never changes opened outputs (see WorkerTunable).
	Workers int
}

// Stats meters the protocol execution. Frames and Messages separate
// physical sends from logical traffic: a batched round folds the
// independent messages of a whole level into one frame per ordered
// party pair, so Frames drops with batching while Messages — the
// protocol-defined traffic — stays put.
type Stats struct {
	Rounds   int64 // communication rounds
	Frames   int64 // physical point-to-point sends (batched frames count once)
	Messages int64 // logical point-to-point messages
	Bytes    int64 // payload bytes (8 per field element per message)
	FieldOps int64 // local field multiplications (cost-model input)
}

// NetTime returns the simulated network time for the metered rounds at
// the given per-round latency.
func (s Stats) NetTime(latency time.Duration) time.Duration {
	return time.Duration(s.Rounds) * latency
}

// Engine simulates the P parties of one BGW execution.
type Engine struct {
	p, t    int
	latency time.Duration
	rngs    []*randx.RNG // party i's private randomness
	weights []field.Elem // Lagrange weights at 0 for points 1..P
	stats   Stats
	workers int      // configured pool bound; see SetWorkers
	scratch elemSlab // recycled P-width accumulators for batched rounds
	run     arena    // plan-execution share arena (Runner)

	rec          obs.Recorder // nil when telemetry is disabled
	roundHist    *obs.Histogram
	opsGauge     *obs.Gauge
	workersGauge *obs.Gauge
	lastRound    time.Time
}

// NewEngine validates the configuration and prepares an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Parties < 3 {
		return nil, fmt.Errorf("bgw: need at least 3 parties, got %d", cfg.Parties)
	}
	t := cfg.Threshold
	if t == 0 {
		t = (cfg.Parties - 1) / 2
	}
	if t < 1 || cfg.Parties < 2*t+1 {
		return nil, fmt.Errorf("bgw: threshold %d invalid for %d parties (need P >= 2t+1, t >= 1)", t, cfg.Parties)
	}
	lat := cfg.Latency
	if lat == 0 {
		lat = DefaultLatency
	}
	e := &Engine{p: cfg.Parties, t: t, latency: lat, workers: cfg.Workers,
		scratch: elemSlab{width: cfg.Parties}}
	if rec := cfg.Recorder; rec != nil && rec.Metrics() != nil {
		e.rec = rec
		e.roundHist = rec.Metrics().Histogram("bgw.round.seconds")
		e.opsGauge = rec.Metrics().Gauge("bgw.fieldops")
		e.workersGauge = rec.Metrics().Gauge("bgw.workers")
		e.workersGauge.Set(float64(effectiveWorkers(e.workers)))
		e.scratch.counter = rec.Metrics().Counter("bgw.pool.reused")
		e.lastRound = time.Now()
	}
	root := randx.New(cfg.Seed)
	for i := 0; i < cfg.Parties; i++ {
		e.rngs = append(e.rngs, root.Fork())
	}
	e.weights = shamir.LagrangeAtZero(shamir.PartyPoints(cfg.Parties))
	return e, nil
}

// Parties returns P.
func (e *Engine) Parties() int { return e.p }

// Threshold returns t.
func (e *Engine) Threshold() int { return e.t }

// Latency returns the per-round latency.
func (e *Engine) Latency() time.Duration { return e.latency }

// Stats returns a snapshot of the execution counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetWorkers implements WorkerTunable: it bounds the pool that
// parallelizes batched share arithmetic and returns the effective
// bound. Opened outputs are identical for every setting.
func (e *Engine) SetWorkers(n int) int {
	e.workers = n
	eff := effectiveWorkers(n)
	if e.workersGauge != nil {
		e.workersGauge.Set(float64(eff))
	}
	return eff
}

// ResetStats zeroes the counters (between experiment phases).
func (e *Engine) ResetStats() { e.stats = Stats{} }

// Recorder returns the engine's telemetry sink (never nil).
func (e *Engine) Recorder() obs.Recorder { return obs.Or(e.rec) }

// AdvanceRound accounts one communication round. Structured protocols
// batch all independent messages of a phase into a single round. With
// telemetry enabled, the wall-clock since the previous round boundary
// becomes one bgw.round span.
func (e *Engine) AdvanceRound() {
	e.stats.Rounds++
	if e.rec != nil {
		e.observeRound(e.stats.Rounds, e.stats.FieldOps)
	}
}

// observeRound emits one per-round span and refreshes the field-op
// gauge.
func (e *Engine) observeRound(round, ops int64) {
	now := time.Now()
	secs := now.Sub(e.lastRound).Seconds()
	e.lastRound = now
	e.roundHist.Observe(secs)
	e.opsGauge.Set(float64(ops))
	e.rec.Event(obs.LevelDebug, "bgw.round",
		obs.Int64("round", round), obs.Float64("seconds", secs),
		obs.Int64("fieldops", ops))
}

// Shared is a single secret-shared value; shares[i] is held by party i.
type Shared struct {
	eng    *Engine
	shares []field.Elem
}

// Input has party owner secret-share the signed value v. The messages
// (one share to each other party) are metered; callers batch all inputs
// of a phase into one round via AdvanceRound.
func (e *Engine) Input(owner int, v int64) *Shared {
	e.checkParty(owner)
	sh := shamir.Share(field.FromInt64(v), e.t, e.p, e.rngs[owner])
	e.meterInput(1)
	return &Shared{eng: e, shares: sh}
}

// InputElem has party owner secret-share a raw field element. Used by
// preprocessing protocols (e.g. Beaver-triple generation) whose values
// are uniform field elements rather than signed integers.
func (e *Engine) InputElem(owner int, v field.Elem) *Shared {
	e.checkParty(owner)
	sh := shamir.Share(v, e.t, e.p, e.rngs[owner])
	e.meterInput(1)
	return &Shared{eng: e, shares: sh}
}

// OpenElem reveals the raw field element (no signed decoding).
func (e *Engine) OpenElem(s *Shared) field.Elem {
	if s.eng != e {
		panic(invariant.Violation("bgw: foreign share"))
	}
	e.meterOpen(1)
	return shamir.ReconstructWithWeights(e.weights, s.shares)
}

// AdditiveShares converts the Shamir sharing to an additive sharing
// locally: with Lagrange weights λ, party i's addend is λ_i·s_i and
// Σ_i λ_i·s_i equals the secret. No communication.
func (s *Shared) AdditiveShares(weights []field.Elem) []field.Elem {
	if len(weights) != len(s.shares) {
		panic(invariant.Violation("bgw: AdditiveShares weight count mismatch"))
	}
	out := make([]field.Elem, len(s.shares))
	field.MulVec(out, weights, s.shares)
	return out
}

// Zero returns a trivial sharing of 0 (all shares zero); no
// communication.
func (e *Engine) Zero() *Shared {
	return &Shared{eng: e, shares: make([]field.Elem, e.p)}
}

// Add returns a sharing of a + b; purely local.
func (e *Engine) Add(a, b *Shared) *Shared {
	e.checkSame(a, b)
	out := make([]field.Elem, e.p)
	field.AddVec(out, a.shares, b.shares)
	return &Shared{eng: e, shares: out}
}

// Sub returns a sharing of a − b; purely local.
func (e *Engine) Sub(a, b *Shared) *Shared {
	e.checkSame(a, b)
	out := make([]field.Elem, e.p)
	field.SubVec(out, a.shares, b.shares)
	return &Shared{eng: e, shares: out}
}

// AddConst returns a sharing of a + c; purely local (the constant
// polynomial c added to every share).
func (e *Engine) AddConst(a *Shared, c int64) *Shared {
	ce := field.FromInt64(c)
	out := make([]field.Elem, e.p)
	field.AddConstVec(out, a.shares, ce)
	return &Shared{eng: e, shares: out}
}

// MulConst returns a sharing of c·a; purely local.
func (e *Engine) MulConst(a *Shared, c int64) *Shared {
	ce := field.FromInt64(c)
	out := make([]field.Elem, e.p)
	field.MulConstVec(out, a.shares, ce)
	e.stats.FieldOps += int64(e.p)
	return &Shared{eng: e, shares: out}
}

// Mul returns a sharing of a·b using the degree-reduction resharing of
// BGW. It meters P(P−1) messages; batch independent multiplications
// into one round with AdvanceRound.
func (e *Engine) Mul(a, b *Shared) *Shared {
	e.checkSame(a, b)
	prods := make([]field.Elem, e.p)
	field.MulVec(prods, a.shares, b.shares)
	e.stats.FieldOps += int64(e.p)
	return e.reshare(prods)
}

// reshare converts a degree-2t sharing (the per-party values in high)
// back to a fresh degree-t sharing of the same secret: each party i
// re-shares its value high[i] and the parties linearly combine the
// sub-shares with the Lagrange weights.
func (e *Engine) reshare(high []field.Elem) *Shared {
	return e.reshareBatch([][]field.Elem{high})[0]
}

// reshareBatch runs one degree-reduction round for a batch of degree-2t
// values (highs[m][i] is party i's value of batch item m): every party
// re-shares all of its values and sends each peer a single frame
// carrying all sub-shares, so a level of independent multiplications
// costs one frame per ordered party pair regardless of batch size.
//
// With one worker, each party consumes its private stream value-major
// (item 0, 1, …), matching both the eager per-gate order and the actor
// parties. With more, the batch splits into contiguous item chunks and
// each chunk reshares with per-chunk forks of the party streams, taken
// serially in chunk order so the randomness is deterministic for a
// fixed worker count. The two disciplines draw different sub-share
// polynomials, but BGW computes exactly — the reconstructed secrets
// cancel the resharing randomness — so opened outputs are bit-identical
// either way.
func (e *Engine) reshareBatch(highs [][]field.Elem) []*Shared {
	n := len(highs)
	outs := make([]*Shared, n)
	for m := range outs {
		outs[m] = &Shared{eng: e, shares: make([]field.Elem, e.p)}
	}
	if w := clampWorkers(e.workers, n); w <= 1 {
		for i := 0; i < e.p; i++ {
			wi := e.weights[i]
			for m := range highs {
				sub := shamir.Share(highs[m][i], e.t, e.p, e.rngs[i])
				field.MulAddVec(outs[m].shares, sub, wi)
			}
		}
	} else {
		chunkRngs := e.forkChunks(w)
		parallelChunks(n, w, func(chunk, start, end int) {
			rngs := chunkRngs[chunk]
			for i := 0; i < e.p; i++ {
				wi := e.weights[i]
				for m := start; m < end; m++ {
					sub := shamir.Share(highs[m][i], e.t, e.p, rngs[i])
					field.MulAddVec(outs[m].shares, sub, wi)
				}
			}
		})
	}
	e.meterReshare(int64(n))
	return outs
}

// InnerProduct returns a sharing of Σ_k a[k]·b[k] using the fused gate:
// each party sums its local share products and a single resharing
// restores degree t. This is the optimization that makes Gram matrices
// and gradient sums communication-cheap (one resharing per output
// instead of per product).
func (e *Engine) InnerProduct(as, bs []*Shared) *Shared {
	if len(as) != len(bs) {
		panic(invariant.Violation("bgw: InnerProduct length mismatch"))
	}
	acc := make([]field.Elem, e.p)
	for k := range as {
		e.checkSame(as[k], bs[k])
		field.MulAccVec(acc, as[k].shares, bs[k].shares)
	}
	e.stats.FieldOps += int64(e.p * len(as))
	return e.reshare(acc)
}

// Open reveals the secret to all parties (shares exchanged pairwise)
// and returns its signed decoding. Batch independent openings into one
// round with AdvanceRound.
func (e *Engine) Open(s *Shared) int64 {
	if s.eng != e {
		panic(invariant.Violation("bgw: foreign share"))
	}
	e.meterOpen(1)
	return field.ToInt64(shamir.ReconstructWithWeights(e.weights, s.shares))
}

// forkChunks forks every party stream once per chunk of a parallel
// batch, serially in chunk order, so the randomness each chunk draws is
// fixed by the worker count alone.
func (e *Engine) forkChunks(w int) [][]*randx.RNG {
	forks := make([][]*randx.RNG, w)
	for c := range forks {
		forks[c] = make([]*randx.RNG, e.p)
		for i := range forks[c] {
			forks[c][i] = e.rngs[i].Fork()
		}
	}
	return forks
}

// meterInput accounts one input exchange of n values: the owner sends
// one frame carrying its n shares to each of the P−1 other parties.
func (e *Engine) meterInput(n int64) {
	e.stats.Frames += int64(e.p - 1)
	e.stats.Messages += n * int64(e.p-1)
	e.stats.Bytes += 8 * n * int64(e.p-1)
	e.stats.FieldOps += n * int64(e.p*(e.t+1))
}

// meterReshare accounts one batched degree reduction of n values: one
// frame per ordered party pair.
func (e *Engine) meterReshare(n int64) {
	pp := int64(e.p * (e.p - 1))
	e.stats.Frames += pp
	e.stats.Messages += n * pp
	e.stats.Bytes += 8 * n * pp
	e.stats.FieldOps += n * int64(e.p*(e.p+e.t+1))
}

// meterOpen accounts one batched opening exchange of n values.
func (e *Engine) meterOpen(n int64) {
	pp := int64(e.p * (e.p - 1))
	e.stats.Frames += pp
	e.stats.Messages += n * pp
	e.stats.Bytes += 8 * n * pp
	e.stats.FieldOps += int64(e.p) * n
}

func (e *Engine) checkParty(i int) {
	if i < 0 || i >= e.p {
		panic(invariant.Violation("bgw: party %d out of range [0,%d)", i, e.p))
	}
}

func (e *Engine) checkSame(a, b *Shared) {
	if a.eng != e || b.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	if len(a.shares) != e.p || len(b.shares) != e.p {
		panic(invariant.Violation("bgw: malformed share vector"))
	}
}
