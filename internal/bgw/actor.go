package bgw

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// ActorEngine runs the BGW protocol as P message-driven party actors
// over a pluggable transport. Unlike the monolithic Engine — which
// holds all parties' shares in one slice — each actor goroutine owns
// only *its* share column and private randomness; input, resharing and
// opening traffic crosses the transport as framed messages, so the
// message/byte statistics are measured from real traffic rather than
// hand-counted.
//
// It implements the same Evaluator plan steps as Engine and is
// output-identical to it: BGW computes exactly, so for the same inputs
// the opened values are bit-equal regardless of backend or share
// randomness.
//
// The facade is driven by a single caller goroutine. Each plan step is
// one command broadcast to every party in issue order; parties execute
// them in that order, which keeps the per-party RNG streams and the
// pairwise message sequences deterministic. Only steps that reveal
// data (RunOpen, AdditiveShares, Stats) synchronize the caller with the
// actors; everything else pipelines.
type ActorEngine struct {
	p, t    int
	latency time.Duration
	mesh    transport.Mesh
	parties []*actorParty
	wg      sync.WaitGroup

	nextSc, nextVec int
	rounds          int64
	err             error
	closed          bool

	// Plan execution: the program of the current execution and the
	// count of executions begun.
	prog  *Program
	epoch uint64

	baseRounds, baseFrames, baseMsgs, baseBytes, baseOps int64

	rec         obs.Recorder // nil when telemetry is disabled
	roundHist   *obs.Histogram
	opsGauge    *obs.Gauge
	partyGauges []*obs.Gauge // per-party cumulative field ops
	lastRound   time.Time
	lastFrames  int64 // mesh frame counter at the previous round boundary
	lastMsgs    int64 // mesh message counter at the previous round boundary
}

// ActorShared is an opaque handle to one secret-shared scalar whose
// shares live inside the party actors.
type ActorShared struct {
	eng *ActorEngine
	ref int
}

// ActorVec is an opaque handle to a secret-shared vector.
type ActorVec struct {
	eng *ActorEngine
	ref int
	n   int
}

// Len returns the number of shared elements.
func (v *ActorVec) Len() int { return v.n }

// NewActorEngine validates the configuration and starts one party
// actor per mesh endpoint. The engine owns the mesh: Close tears both
// down. Seed derivation matches NewEngine, so party i's private stream
// is identical to the monolithic engine's party i under the same seed.
func NewActorEngine(cfg Config, mesh transport.Mesh) (*ActorEngine, error) {
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
	if mesh.Parties() != cfg.Parties {
		return nil, fmt.Errorf("bgw: mesh has %d endpoints for %d parties", mesh.Parties(), cfg.Parties)
	}
	lat := cfg.Latency
	if lat == 0 {
		lat = DefaultLatency
	}
	if cfg.RecvTimeout > 0 {
		mesh.SetRecvTimeout(cfg.RecvTimeout)
	}
	e := &ActorEngine{p: cfg.Parties, t: t, latency: lat, mesh: mesh}
	if rec := cfg.Recorder; rec != nil && rec.Metrics() != nil {
		e.rec = rec
		e.roundHist = rec.Metrics().Histogram("bgw.round.seconds")
		e.opsGauge = rec.Metrics().Gauge("bgw.fieldops")
		e.partyGauges = make([]*obs.Gauge, cfg.Parties)
		for i := range e.partyGauges {
			e.partyGauges[i] = rec.Metrics().Gauge(fmt.Sprintf("bgw.party.%d.fieldops", i))
		}
		e.lastRound = time.Now()
	}
	weights := shamir.LagrangeAtZero(shamir.PartyPoints(cfg.Parties))
	root := randx.New(cfg.Seed)
	for i := 0; i < cfg.Parties; i++ {
		pa := &actorParty{
			id: i, p: cfg.Parties, t: t,
			rng:     root.Fork(),
			weights: weights,
			sub:     make([]field.Elem, cfg.Parties),
			conn:    mesh.Conn(i),
			cmds:    make(chan *actorCmd, 256),
			workers: cfg.Workers,
		}
		e.parties = append(e.parties, pa)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			pa.run()
		}()
	}
	return e, nil
}

// Parties returns P.
func (e *ActorEngine) Parties() int { return e.p }

// Threshold returns t.
func (e *ActorEngine) Threshold() int { return e.t }

// Latency returns the per-round latency.
func (e *ActorEngine) Latency() time.Duration { return e.latency }

// Recorder returns the engine's telemetry sink (never nil).
func (e *ActorEngine) Recorder() obs.Recorder { return obs.Or(e.rec) }

// AdvanceRound accounts one communication round; with telemetry enabled
// the wall-clock since the previous boundary becomes one bgw.round span
// carrying the mesh's frame/message deltas for the round.
func (e *ActorEngine) AdvanceRound() {
	e.rounds++
	if e.rec != nil {
		now := time.Now()
		secs := now.Sub(e.lastRound).Seconds()
		e.lastRound = now
		e.roundHist.Observe(secs)
		frames, msgs, _ := e.mesh.Counters()
		e.rec.Event(obs.LevelDebug, "bgw.round",
			obs.Int64("round", e.rounds), obs.Float64("seconds", secs),
			obs.Int64("frames", frames-e.lastFrames), obs.Int64("messages", msgs-e.lastMsgs))
		e.lastFrames, e.lastMsgs = frames, msgs
	}
}

// Err returns the first failure any party actor hit (transport abort,
// EOF mid-round, malformed frame); nil while healthy.
func (e *ActorEngine) Err() error { return e.err }

// Stats synchronizes with the actors and returns counters: rounds from
// the protocol structure, frames/messages/bytes measured by the
// transport, field operations summed over the parties' local work.
func (e *ActorEngine) Stats() Stats {
	ops := e.collectOps()
	frames, msgs, bytes := e.mesh.Counters()
	return Stats{
		Rounds:   e.rounds - e.baseRounds,
		Frames:   frames - e.baseFrames,
		Messages: msgs - e.baseMsgs,
		Bytes:    bytes - e.baseBytes,
		FieldOps: ops - e.baseOps,
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (e *ActorEngine) ResetStats() {
	e.baseOps = e.collectOps()
	e.baseFrames, e.baseMsgs, e.baseBytes = e.mesh.Counters()
	e.baseRounds = e.rounds
}

// Close shuts the party actors down and tears down the mesh. Parties
// blocked mid-round are unblocked by the mesh teardown.
func (e *ActorEngine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.mesh.Close()
	for _, pa := range e.parties {
		close(pa.cmds)
	}
	e.wg.Wait()
	return nil
}

// dispatch broadcasts one command to every party; reports false when
// the engine is failed or closed (the command must then be skipped).
func (e *ActorEngine) dispatch(c *actorCmd) bool {
	if e.err != nil || e.closed {
		return false
	}
	for _, pa := range e.parties {
		pa.cmds <- c
	}
	return true
}

// await collects exactly one reply per party and latches the first
// error into the engine's sticky failure state. A failing party tears
// its endpoint down, so its peers fail too with transport.ErrClosed;
// the latched error is the root cause whenever one party reports it,
// whatever order the replies arrive in.
func (e *ActorEngine) await(c *actorCmd) []actorReply {
	replies := make([]actorReply, e.p)
	for i := 0; i < e.p; i++ {
		r := <-c.reply
		if r.err != nil && (e.err == nil || errors.Is(e.err, transport.ErrClosed) && !errors.Is(r.err, transport.ErrClosed)) {
			e.err = r.err
			if e.rec != nil {
				e.rec.Event(obs.LevelWarn, "bgw.party.failed",
					obs.Int("party", r.party), obs.String("err", r.err.Error()))
			}
		}
		replies[r.party] = r
	}
	return replies
}

func (e *ActorEngine) newSc() int {
	r := e.nextSc
	e.nextSc++
	return r
}

func (e *ActorEngine) newVec() int {
	r := e.nextVec
	e.nextVec++
	return r
}

func (e *ActorEngine) scRef(v Val) int {
	s, ok := v.(*ActorShared)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	return s.ref
}

func (e *ActorEngine) vecRef(v Vec) int {
	s, ok := v.(*ActorVec)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
	return s.ref
}

// collectOps runs a barrier and sums the parties' cumulative local
// field-operation counters; with telemetry enabled the per-party totals
// are published as bgw.party.<i>.fieldops gauges.
func (e *ActorEngine) collectOps() int64 {
	c := &actorCmd{op: opBarrier, reply: make(chan actorReply, e.p)}
	if !e.dispatch(c) {
		return e.baseOps
	}
	var sum int64
	for i, r := range e.await(c) {
		sum += r.ops
		if e.rec != nil {
			e.partyGauges[i].Set(float64(r.ops))
		}
	}
	if e.rec != nil {
		e.opsGauge.Set(float64(sum))
	}
	return sum
}

// AdditiveShares converts the Shamir sharing to an additive sharing:
// each party reports weights[i]·share_i (a local computation; the
// collection is facade-side synchronization, not protocol traffic).
func (e *ActorEngine) AdditiveShares(s Val, weights []field.Elem) []field.Elem {
	if len(weights) != e.p {
		panic(invariant.Violation("bgw: AdditiveShares weight count mismatch"))
	}
	ref := e.scRef(s)
	w := append([]field.Elem(nil), weights...)
	c := &actorCmd{op: opAdditive, a: ref, weights: w, reply: make(chan actorReply, e.p)}
	out := make([]field.Elem, e.p)
	if !e.dispatch(c) {
		return out
	}
	for i, r := range e.await(c) {
		out[i] = r.elem
	}
	if e.err != nil {
		return make([]field.Elem, e.p)
	}
	return out
}

// ---- plan execution ----

// Begin implements Evaluator: it resolves the external vectors to the
// parties' vector slots and broadcasts a private copy of the bindings,
// which the parties read while the caller is free to reuse its own.
func (e *ActorEngine) Begin(prog *Program, bind Binding) {
	x := &actorExec{
		prog:      prog,
		consts:    make([]field.Elem, len(bind.Consts)),
		inputs:    append([]int64(nil), bind.Inputs...),
		inputVecs: make([][]int64, len(bind.InputVecs)),
		indices:   append([]int(nil), bind.Indices...),
		ext:       make([]int, len(bind.ExtVecs)),
	}
	for k, v := range bind.ExtVecs {
		x.ext[k] = e.vecRef(v)
	}
	for k, c := range bind.Consts {
		x.consts[k] = field.FromInt64(c)
	}
	for k, vs := range bind.InputVecs {
		x.inputVecs[k] = append([]int64(nil), vs...)
	}
	e.epoch++
	e.prog = prog
	e.dispatch(&actorCmd{op: opBegin, exec: x})
}

// Epoch implements Evaluator.
func (e *ActorEngine) Epoch() uint64 { return e.epoch }

// ShareInputs implements Evaluator: one broadcast; every input crosses the
// transport as one frame from its owner to each peer.
func (e *ActorEngine) ShareInputs() { e.dispatch(&actorCmd{op: opInputs}) }

// RunLocal implements Evaluator: one broadcast; each party runs the level's
// linear closure on its own column.
func (e *ActorEngine) RunLocal(level int) { e.dispatch(&actorCmd{op: opLocal, k: level}) }

// RunMul implements Evaluator: one broadcast; the parties run the level as
// one batched reshare exchange.
func (e *ActorEngine) RunMul(level int) { e.dispatch(&actorCmd{op: opLevel, k: level}) }

// RunOpen implements Evaluator: the parties open every output and party 0
// reports them. After a failure the outputs read zero (see Err).
func (e *ActorEngine) RunOpen() ([]int64, [][]int64) {
	c := &actorCmd{op: opOpens, reply: make(chan actorReply, e.p)}
	if e.dispatch(c) {
		r := e.await(c)[0]
		if e.err == nil {
			return r.vals, r.vecs
		}
	}
	code := e.prog.code(e.prog.Opens)
	scalars := openScalars(code)
	var opened []int64
	if scalars > 0 {
		opened = make([]int64, scalars)
	}
	vecs := make([][]int64, 0, len(code)-scalars)
	for _, in := range code[scalars:] {
		vecs = append(vecs, make([]int64, in.N))
	}
	return opened, vecs
}

// Keep implements Evaluator: every party copies its share in slot out of
// the arena into a scalar slot of its own.
func (e *ActorEngine) Keep(slot int32) Val {
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opKeep, a: int(slot)})
	return &ActorShared{eng: e, ref: ref}
}

// KeepVec implements Evaluator: every party copies its n shares at ref out
// of the arena (or out of the bound external vector).
func (e *ActorEngine) KeepVec(ref int32, n int) Vec {
	vref := e.newVec()
	e.dispatch(&actorCmd{op: opKeepVec, a: int(ref), k: n})
	return &ActorVec{eng: e, ref: vref, n: n}
}
