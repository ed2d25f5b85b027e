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
// only *its* shares and private randomness; resharing and opening
// traffic crosses the transport as framed messages, so the
// message/byte statistics are measured from real traffic rather than
// hand-counted.
//
// The facade keeps the monolithic engine's API shape (Input, Dot,
// DotBatch, InnerProduct, Open, stats metering) and is output-identical
// to it: BGW computes exactly, so for the same inputs the opened values
// are bit-equal regardless of backend or share randomness.
//
// The facade is driven by a single caller goroutine. Commands are
// broadcast to every party in issue order; parties execute them in that
// order, which keeps the per-party RNG streams and the pairwise message
// sequences deterministic. Only operations that reveal data (Open,
// OpenVec, AdditiveShares, Stats) synchronize the caller with the
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

	// Plan execution (Runner): the program of the current execution
	// and the count of executions begun.
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

// At extracts element k as a scalar handle (local to every party).
func (v *ActorVec) At(k int) Val { return v.eng.At(v, k) }

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

// SetWorkers implements WorkerTunable: the bound is broadcast to every
// party actor (applied in command order, like any other op) and governs
// the pool that parallelizes each party's batched local arithmetic.
// Party gate computations carry no randomness, so shares — and
// therefore opened outputs — are identical for every setting.
func (e *ActorEngine) SetWorkers(n int) int {
	e.dispatch(&actorCmd{op: opSetWorkers, k: n})
	return effectiveWorkers(n)
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

func (e *ActorEngine) checkParty(i int) {
	if i < 0 || i >= e.p {
		panic(invariant.Violation("bgw: party %d out of range [0,%d)", i, e.p))
	}
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

// ---- Evaluator operations ----

// Input has party owner secret-share the signed value v; one real
// message per receiving party crosses the transport.
func (e *ActorEngine) Input(owner int, v int64) Val {
	e.checkParty(owner)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opInput, owner: owner, c: v})
	return &ActorShared{eng: e, ref: ref}
}

// InputElem has party owner secret-share a raw field element.
func (e *ActorEngine) InputElem(owner int, el field.Elem) Val {
	e.checkParty(owner)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opInputElem, owner: owner, elem: el})
	return &ActorShared{eng: e, ref: ref}
}

// InputVec has party owner secret-share the signed vector vs; one
// batched message per receiving party.
func (e *ActorEngine) InputVec(owner int, vs []int64) Vec {
	e.checkParty(owner)
	ref := e.newVec()
	ints := append([]int64(nil), vs...)
	e.dispatch(&actorCmd{op: opInputVec, owner: owner, ints: ints})
	return &ActorVec{eng: e, ref: ref, n: len(vs)}
}

// Zero returns a trivial sharing of 0; local.
func (e *ActorEngine) Zero() Val {
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opZero})
	return &ActorShared{eng: e, ref: ref}
}

// Add returns a sharing of a + b; local.
func (e *ActorEngine) Add(a, b Val) Val {
	ra, rb := e.scRef(a), e.scRef(b)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opAdd, a: ra, b: rb})
	return &ActorShared{eng: e, ref: ref}
}

// Sub returns a sharing of a − b; local.
func (e *ActorEngine) Sub(a, b Val) Val {
	ra, rb := e.scRef(a), e.scRef(b)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opSub, a: ra, b: rb})
	return &ActorShared{eng: e, ref: ref}
}

// AddConst returns a sharing of a + c; local.
func (e *ActorEngine) AddConst(a Val, c int64) Val {
	ra := e.scRef(a)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opAddConst, a: ra, c: c})
	return &ActorShared{eng: e, ref: ref}
}

// MulConst returns a sharing of c·a; local.
func (e *ActorEngine) MulConst(a Val, c int64) Val {
	ra := e.scRef(a)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opMulConst, a: ra, c: c})
	return &ActorShared{eng: e, ref: ref}
}

// Mul returns a sharing of a·b: every party multiplies its shares
// locally and the actors run one degree-reduction resharing round over
// the transport.
func (e *ActorEngine) Mul(a, b Val) Val {
	ra, rb := e.scRef(a), e.scRef(b)
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opMul, a: ra, b: rb})
	return &ActorShared{eng: e, ref: ref}
}

// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused gate:
// local sums of share products, then a single resharing.
func (e *ActorEngine) InnerProduct(as, bs []Val) Val {
	if len(as) != len(bs) {
		panic(invariant.Violation("bgw: InnerProduct length mismatch"))
	}
	refs := make([]int, len(as))
	refs2 := make([]int, len(bs))
	for i := range as {
		refs[i] = e.scRef(as[i])
		refs2[i] = e.scRef(bs[i])
	}
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opInnerProduct, refs: refs, refs2: refs2})
	return &ActorShared{eng: e, ref: ref}
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

// Open reveals the signed secret: the parties exchange shares pairwise
// over the transport, each reconstructs, and party 0 reports the value
// to the caller. Returns 0 after a transport failure (see Err).
func (e *ActorEngine) Open(s Val) int64 {
	ref := e.scRef(s)
	c := &actorCmd{op: opOpen, a: ref, reply: make(chan actorReply, e.p)}
	if !e.dispatch(c) {
		return 0
	}
	replies := e.await(c)
	if e.err != nil {
		return 0
	}
	return replies[0].val
}

// At extracts element k of a vector as a scalar; local.
func (e *ActorEngine) At(v Vec, k int) Val {
	rv := e.vecRef(v)
	if k < 0 || k >= v.Len() {
		panic(invariant.Violation("bgw: vector index out of range"))
	}
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opAt, a: rv, k: k})
	return &ActorShared{eng: e, ref: ref}
}

// AddVec returns the element-wise sum a + b; local.
func (e *ActorEngine) AddVec(a, b Vec) Vec {
	ra, rb := e.vecRef(a), e.vecRef(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	ref := e.newVec()
	e.dispatch(&actorCmd{op: opAddVec, a: ra, b: rb})
	return &ActorVec{eng: e, ref: ref, n: a.Len()}
}

// Dot returns a sharing of ⟨a, b⟩ with the fused gate (one resharing).
func (e *ActorEngine) Dot(a, b Vec) Val {
	ra, rb := e.vecRef(a), e.vecRef(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opDot, a: ra, b: rb})
	return &ActorShared{eng: e, ref: ref}
}

// DotBatch evaluates many fused inner products in one batched resharing
// round: every party sends a single message per peer carrying the
// sub-shares of all pairs. workers is ignored — the parties are already
// concurrent actors.
func (e *ActorEngine) DotBatch(pairs []VecPair, workers int) []Val {
	_ = workers
	out := make([]Val, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	refs := make([]int, len(pairs))
	refs2 := make([]int, len(pairs))
	for i, pr := range pairs {
		refs[i] = e.vecRef(pr.A)
		refs2[i] = e.vecRef(pr.B)
		if pr.A.Len() != pr.B.Len() {
			panic(invariant.Violation("bgw: vector length mismatch"))
		}
	}
	for i := range out {
		out[i] = &ActorShared{eng: e, ref: e.newSc()}
	}
	e.dispatch(&actorCmd{op: opDotBatch, refs: refs, refs2: refs2})
	return out
}

// MulBatch evaluates one level of independent multiplicative gates in a
// single batched degree-reduction round: every party computes all local
// degree-2t values, then one reshare exchange carries every sub-share
// in one frame per ordered party pair.
func (e *ActorEngine) MulBatch(items []MulItem) []Val {
	out := make([]Val, len(items))
	if len(items) == 0 {
		return out
	}
	muls := make([]mulDesc, len(items))
	for i, it := range items {
		switch it.Kind {
		case MulScalar:
			muls[i] = mulDesc{kind: MulScalar, a: e.scRef(it.A), b: e.scRef(it.B)}
		case MulInner:
			if len(it.As) != len(it.Bs) {
				panic(invariant.Violation("bgw: MulBatch inner-product length mismatch"))
			}
			refs := make([]int, len(it.As))
			refs2 := make([]int, len(it.Bs))
			for k := range it.As {
				refs[k] = e.scRef(it.As[k])
				refs2[k] = e.scRef(it.Bs[k])
			}
			muls[i] = mulDesc{kind: MulInner, refs: refs, refs2: refs2}
		case MulDot:
			if it.VA.Len() != it.VB.Len() {
				panic(invariant.Violation("bgw: vector length mismatch"))
			}
			muls[i] = mulDesc{kind: MulDot, a: e.vecRef(it.VA), b: e.vecRef(it.VB)}
		default:
			panic(invariant.Violation("bgw: unknown MulKind %d", it.Kind))
		}
	}
	for i := range out {
		out[i] = &ActorShared{eng: e, ref: e.newSc()}
	}
	e.dispatch(&actorCmd{op: opMulBatch, muls: muls})
	return out
}

// OpenBatch reveals many shared scalars in one batched opening round;
// party 0 reports the values to the caller.
func (e *ActorEngine) OpenBatch(vals []Val) []int64 {
	out := make([]int64, len(vals))
	if len(vals) == 0 {
		return out
	}
	refs := make([]int, len(vals))
	for i, v := range vals {
		refs[i] = e.scRef(v)
	}
	c := &actorCmd{op: opOpenBatch, refs: refs, reply: make(chan actorReply, e.p)}
	if !e.dispatch(c) {
		return out
	}
	replies := e.await(c)
	if e.err != nil || replies[0].vals == nil {
		return make([]int64, len(vals))
	}
	return replies[0].vals
}

// FromScalars packs scalar shares into a vector; local.
func (e *ActorEngine) FromScalars(xs []Val) Vec {
	refs := make([]int, len(xs))
	for i := range xs {
		refs[i] = e.scRef(xs[i])
	}
	ref := e.newVec()
	e.dispatch(&actorCmd{op: opFromScalars, refs: refs})
	return &ActorVec{eng: e, ref: ref, n: len(xs)}
}

// OpenVec reveals every element as one batched opening (one message per
// ordered party pair carrying all elements).
func (e *ActorEngine) OpenVec(v Vec) []int64 {
	ref := e.vecRef(v)
	c := &actorCmd{op: opOpenVec, a: ref, reply: make(chan actorReply, e.p)}
	if !e.dispatch(c) {
		return make([]int64, v.Len())
	}
	replies := e.await(c)
	if e.err != nil || replies[0].vals == nil {
		return make([]int64, v.Len())
	}
	return replies[0].vals
}

// ---- plan execution (Runner) ----

// Begin implements Runner: it resolves the external vectors to the
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

// Epoch implements Runner.
func (e *ActorEngine) Epoch() uint64 { return e.epoch }

// ShareInputs implements Runner: one broadcast; every input crosses the
// transport as one frame from its owner to each peer.
func (e *ActorEngine) ShareInputs() { e.dispatch(&actorCmd{op: opInputs}) }

// RunLocal implements Runner: one broadcast; each party runs the level's
// linear closure on its own column.
func (e *ActorEngine) RunLocal(level int) { e.dispatch(&actorCmd{op: opLocal, k: level}) }

// RunMul implements Runner: one broadcast; the parties run the level as
// one batched reshare exchange.
func (e *ActorEngine) RunMul(level int) { e.dispatch(&actorCmd{op: opLevel, k: level}) }

// RunOpen implements Runner: the parties open every output and party 0
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

// Keep implements Runner: every party copies its share in slot out of
// the arena into a scalar slot of its own.
func (e *ActorEngine) Keep(slot int32) Val {
	ref := e.newSc()
	e.dispatch(&actorCmd{op: opKeep, a: int(slot)})
	return &ActorShared{eng: e, ref: ref}
}

// KeepVec implements Runner: every party copies its n shares at ref out
// of the arena (or out of the bound external vector).
func (e *ActorEngine) KeepVec(ref int32, n int) Vec {
	vref := e.newVec()
	e.dispatch(&actorCmd{op: opKeepVec, a: int(ref), k: n})
	return &ActorVec{eng: e, ref: vref, n: n}
}
