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
// Engines run compiled plans only: package circuit records a protocol
// and lowers it to a Program, and an Evaluator executes it step by
// step — input round, each level's linear closure and batched
// resharing, opening round — through one party-local kernel. Two
// engines implement Evaluator. Engine simulates all P parties in one
// process and meters the communication it would send; ActorEngine runs
// one goroutine per party over a transport and measures real traffic.
// Both perform the share arithmetic faithfully, so outputs are
// bit-exact with the plaintext computation, and simulated network time
// is rounds × Latency, matching the paper's experimental setup of a
// fixed 0.1 s message-passing cost.
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
	// arithmetic of each multiplicative level (gate products and, on
	// the monolithic engine, the reshare folds). 0 means
	// runtime.NumCPU(); 1 forces the serial path; explicit values are
	// honored as given so a pinned pool size chunks — and draws
	// randomness — identically on every machine. Worker count never
	// changes opened outputs: BGW computes exactly, so reconstructed
	// secrets never depend on the resharing randomness.
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
	workers int   // Config.Workers
	run     arena // plan-execution share arena

	rec       obs.Recorder // nil when telemetry is disabled
	roundHist *obs.Histogram
	opsGauge  *obs.Gauge
	lastRound time.Time
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
	e := &Engine{p: cfg.Parties, t: t, latency: lat, workers: cfg.Workers}
	if rec := cfg.Recorder; rec != nil && rec.Metrics() != nil {
		e.rec = rec
		e.roundHist = rec.Metrics().Histogram("bgw.round.seconds")
		e.opsGauge = rec.Metrics().Gauge("bgw.fieldops")
		rec.Metrics().Gauge("bgw.workers").Set(float64(effectiveWorkers(e.workers)))
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

// AdditiveShares implements Evaluator for a handle this engine issued
// (see Keep).
func (e *Engine) AdditiveShares(s Val, weights []field.Elem) []field.Elem {
	sh, ok := s.(*Shared)
	if !ok || sh.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	return sh.AdditiveShares(weights)
}

// SharedVec is a vector of secret-shared values stored party-major:
// shares[i][k] is party i's share of element k.
type SharedVec struct {
	eng    *Engine
	shares [][]field.Elem // [party][element]
}

// Len returns the number of shared elements.
func (v *SharedVec) Len() int { return len(v.shares[0]) }

// Err always reports healthy: the simulated parties cannot fail.
func (e *Engine) Err() error { return nil }

// Close is a no-op: the engine holds no goroutines or sockets.
func (e *Engine) Close() error { return nil }

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
