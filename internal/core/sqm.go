// Package core implements the Skellam Quantization Mechanism (SQM), the
// paper's primary contribution: a distributed-DP protocol for evaluating
// polynomial aggregates over a vertically partitioned database without
// any trusted party.
//
// The mechanism (Algorithms 1 and 3):
//
//  1. every client quantizes its private column with Algorithm 2
//     (up-scale by γ, stochastic rounding) — package quant;
//  2. the public polynomial's coefficients are pre-processed so that
//     every monomial carries the same overall factor γ^{λ+1} — package
//     poly;
//  3. every client privately samples a share Sk(μ/n) of the Skellam
//     noise — package randx;
//  4. the clients run an MPC protocol to compute the quantized aggregate
//     plus the aggregated noise — either the real BGW engine (package
//     bgw) or a plaintext integer engine that is output-identical
//     because BGW computes exactly;
//  5. the server down-scales the opened result by γ^{λ+1} (γ^λ for the
//     coefficient-1 monomials of Algorithm 1).
//
// Specialized protocols for the two applications of §V — the covariance
// matrix for PCA and the Taylor-approximated logistic-regression
// gradient — live in covariance.go and lr.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/dp"
	"sqm/internal/field"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/retry"
	"sqm/internal/transport"
)

// EngineKind selects the evaluation backend.
type EngineKind int

const (
	// EnginePlain evaluates the quantized integers directly. Because
	// BGW computes exactly, the output distribution is identical to
	// the MPC engines; this is the fast path for utility experiments.
	EnginePlain EngineKind = iota
	// EngineBGW runs the secret-shared protocol with the monolithic
	// engine that simulates all parties in one goroutine and models
	// the communication counters.
	EngineBGW
	// EngineActorBGW runs the secret-shared protocol with one actor
	// goroutine per party exchanging shares over an in-memory channel
	// mesh; messages and bytes are measured from real traffic.
	EngineActorBGW
	// EngineActorBGWNet is EngineActorBGW with the share traffic
	// carried over localhost TCP sockets using the session layer's
	// framing.
	EngineActorBGWNet
)

// IsMPC reports whether the kind runs the real secret-shared protocol.
func (k EngineKind) IsMPC() bool {
	return k == EngineBGW || k == EngineActorBGW || k == EngineActorBGWNet
}

// String names the kind as accepted by the CLI's -engine flag.
func (k EngineKind) String() string {
	switch k {
	case EnginePlain:
		return "plain"
	case EngineBGW:
		return "bgw"
	case EngineActorBGW:
		return "actor"
	case EngineActorBGWNet:
		return "actor-net"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngineKind maps a CLI name to its engine kind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "plain":
		return EnginePlain, nil
	case "bgw":
		return EngineBGW, nil
	case "actor":
		return EngineActorBGW, nil
	case "actor-net":
		return EngineActorBGWNet, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want plain, bgw, actor or actor-net)", s)
}

// Params configures one SQM invocation.
type Params struct {
	Gamma      float64       // scaling parameter γ >= 1 (Algorithm 2)
	Mu         float64       // aggregate Skellam parameter μ; clients sample Sk(μ/n)
	NumClients int           // n, the noise-contributing clients; 0 means one per column
	Engine     EngineKind    // evaluation backend
	Parties    int           // BGW parties P (EngineBGW); 0 means 4
	Threshold  int           // BGW threshold t; 0 means floor((P-1)/2)
	Latency    time.Duration // per-round message latency; 0 means 100 ms
	Seed       uint64        // reproducibility seed
	Recorder   obs.Recorder  // telemetry sink for engine and mesh; nil disables
	Fault      FaultConfig   // fault-tolerance knobs (zero value: fail-stop off)
	// Trace attaches distributed tracing: the engine's events are
	// stamped into the coordinator stream's flight recorder, and — when
	// the context carries one stream per party — the mesh propagates
	// (trace, sender, lclock) in-band so per-party streams merge into
	// one causal timeline. Nil disables tracing.
	Trace *obs.TraceContext
	// Acct, when non-nil, receives the RDP curve of this invocation's
	// Skellam release at the protocol's generic sensitivity bound
	// (unit-norm records). Applications with tighter closed-form
	// sensitivities (PCA, the LR trainers) account at their own layer
	// and leave this nil to avoid double counting.
	Acct *dp.Accountant
}

// FaultConfig bundles the fault-tolerance knobs the CLIs thread down to
// the engines and meshes. The zero value preserves the trusting
// defaults: blocking receives, single dial attempts.
type FaultConfig struct {
	// RecvTimeout bounds every party-to-party receive of the actor
	// engines; a silent peer surfaces as transport.ErrTimeout instead of
	// a hang. 0 keeps receives blocking.
	RecvTimeout time.Duration
	// DialRetries is the attempt budget for the TCP mesh's pair dials
	// (EngineActorBGWNet); values below 1 mean a single attempt.
	DialRetries int
	// DialBackoff is the base backoff between dial attempts (doubled per
	// retry, seeded jitter); 0 means the retry package default.
	DialBackoff time.Duration
}

func (p *Params) normalize(cols int) error {
	if p.Gamma < 1 {
		return fmt.Errorf("core: gamma must be >= 1, got %v", p.Gamma)
	}
	if p.Mu < 0 {
		return fmt.Errorf("core: mu must be non-negative, got %v", p.Mu)
	}
	if p.NumClients == 0 {
		p.NumClients = cols
	}
	if p.NumClients < 1 {
		return fmt.Errorf("core: need at least one client, got %d", p.NumClients)
	}
	if p.Engine.IsMPC() {
		if p.Parties == 0 {
			p.Parties = 4
		}
		if p.Parties < 3 {
			return fmt.Errorf("core: BGW needs at least 3 parties, got %d", p.Parties)
		}
	}
	if p.Trace != nil && p.Trace.Parties() != 0 && p.Engine.IsMPC() && p.Trace.Parties() != p.Parties {
		return fmt.Errorf("core: trace context has %d party streams, engine has %d parties",
			p.Trace.Parties(), p.Parties)
	}
	if p.Latency == 0 {
		p.Latency = bgw.DefaultLatency
	}
	return nil
}

// clientOf maps column j to its owning client (block partition, as in
// the paper's experiments where n attributes are evenly split over P
// clients).
func (p *Params) clientOf(col, cols int) int {
	if p.NumClients >= cols {
		return col
	}
	return col * p.NumClients / cols
}

// partyOf maps a client to the BGW party simulating it.
func (p *Params) partyOf(client int) int {
	if !p.Engine.IsMPC() {
		return 0
	}
	return client % p.Parties
}

// newEvaluator constructs the MPC backend selected by p.Engine. The
// seed perturbation keeps each protocol's share randomness on its own
// stream, as before the backends became pluggable. The caller owns the
// evaluator and must Close it.
func (p *Params) newEvaluator(seedXor uint64) (bgw.Evaluator, error) {
	rec := p.Recorder
	if p.Trace != nil && obs.TraceOf(rec) == nil {
		// The engine runs on the coordinator goroutine: its events land
		// on the coordinator stream, stamped and flight-recorded.
		rec = p.Trace.Coordinator().Wrap(rec)
	}
	cfg := bgw.Config{
		Parties: p.Parties, Threshold: p.Threshold, Latency: p.Latency,
		Seed: p.Seed ^ seedXor, Recorder: rec, RecvTimeout: p.Fault.RecvTimeout,
	}
	meshOpts := []transport.Option{transport.WithRecorder(rec)}
	if p.Trace != nil && p.Trace.Parties() == p.Parties {
		meshOpts = append(meshOpts, transport.WithTracer(p.Trace))
	}
	switch p.Engine {
	case EngineBGW:
		return bgw.NewEngine(cfg)
	case EngineActorBGW:
		return bgw.NewActorEngine(cfg, transport.NewChanMesh(cfg.Parties, meshOpts...))
	case EngineActorBGWNet:
		meshOpts = append(meshOpts, transport.WithDialRetry(retry.Policy{
			Attempts: p.Fault.DialRetries,
			Base:     p.Fault.DialBackoff,
			Jitter:   0.5,
			Seed:     p.Seed ^ 0xd1a1,
			Recorder: rec,
			Name:     "core.dial",
		}))
		mesh, err := transport.NewTCPMesh(cfg.Parties, meshOpts...)
		if err != nil {
			return nil, err
		}
		return bgw.NewActorEngine(cfg, mesh)
	}
	return nil, errUnknownEngine(p.Engine)
}

// Trace reports diagnostics of one SQM invocation: the scaled integer
// output, the applied down-scaling, and the cost model inputs used by
// the timing experiments (Tables II, IV, V).
type Trace struct {
	Scaled []int64       // ŷ before the server's down-scaling
	Scale  float64       // the divisor (γ^{λ+1}, or γ^λ for Algorithm 1)
	Stats  bgw.Stats     // protocol counters (zero for EnginePlain)
	Lat    time.Duration // per-round latency used for simulated time

	Compute      time.Duration // wall-clock of the full evaluation
	NoiseCompute time.Duration // wall-clock of noise sampling + aggregation
	NoiseRounds  int64         // communication rounds attributable to DP
}

// TotalTime is the modeled end-to-end cost: measured computation plus
// simulated network latency (rounds × Latency), the paper's timing
// model.
func (t *Trace) TotalTime() time.Duration {
	return t.Compute + time.Duration(t.Stats.Rounds)*t.Lat
}

// NoiseTime is the part of TotalTime attributable to enforcing DP.
func (t *Trace) NoiseTime() time.Duration {
	return t.NoiseCompute + time.Duration(t.NoiseRounds)*t.Lat
}

// ErrFieldOverflow reports that the statically bounded aggregate cannot
// be embedded into the BGW field without wrap-around — the caller must
// lower γ or μ. Detecting this *before* running the protocol is what
// keeps the implementation aligned with the sensitivity analysis (see
// "On discretization", §V-C).
var ErrFieldOverflow = errors.New("core: aggregate bound exceeds the MPC field's signed range")

// noiseMargin bounds |Sk(mu)| with overwhelming probability for the
// static overflow check: 16 standard deviations plus slack.
func noiseMargin(mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	return 16*math.Sqrt(2*mu) + 64
}

// checkFieldBound verifies that |bound| fits the signed embedding.
func checkFieldBound(bound float64) error {
	if bound >= float64(field.MaxSignedValue) {
		return ErrFieldOverflow
	}
	return nil
}

// sampleNoiseShares draws the per-client Skellam shares: out[j][t] ~
// Sk(mu/n) for client j and output dimension t. Each client uses its own
// private stream.
func sampleNoiseShares(clientRNGs []*randx.RNG, dims int, mu float64) [][]int64 {
	n := len(clientRNGs)
	out := make([][]int64, n)
	share := mu / float64(n)
	for j := range out {
		out[j] = clientRNGs[j].SkellamVec(dims, share)
	}
	return out
}

// rngFamily derives the root, public-coin and per-client private
// streams for one invocation.
func rngFamily(seed uint64, clients int) (pub *randx.RNG, clientRNGs []*randx.RNG) {
	root := randx.New(seed)
	pub = root.Fork()
	clientRNGs = make([]*randx.RNG, clients)
	for j := range clientRNGs {
		clientRNGs[j] = root.Fork()
	}
	return pub, clientRNGs
}
