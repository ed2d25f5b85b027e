package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// actorOp enumerates the commands the facade broadcasts to the party
// actors. Every party executes the same command sequence in the same
// order, which keeps share slot indices and RNG streams aligned across
// parties without any coordination messages.
type actorOp uint8

const (
	opAdditive actorOp = iota
	opBarrier
	// Plan execution: one command per step, not per node.
	opBegin
	opInputs
	opLocal
	opLevel
	opOpens
	opKeep
	opKeepVec
)

// actorCmd is one broadcast command. Operand fields are interpreted per
// opcode. The payload is read-only for the parties — the facade never
// mutates a command after dispatch.
type actorCmd struct {
	op      actorOp
	a       int          // scalar slot (opAdditive), arena slot (opKeep) or vector ref (opKeepVec)
	k       int          // level (opLocal, opLevel) or vector length (opKeepVec)
	weights []field.Elem // Lagrange weights (opAdditive)
	exec    *actorExec   // one execution's bindings (opBegin)
	reply   chan actorReply
}

// actorExec is one plan execution's bindings, copied facade-side so the
// parties can read them while the caller reuses its own buffers.
type actorExec struct {
	prog      *Program
	consts    []field.Elem
	inputs    []int64
	inputVecs [][]int64
	indices   []int
	ext       []int // vector slots of the bound external vectors
}

// actorReply is one party's answer to a synchronizing command.
type actorReply struct {
	party int
	vals  []int64
	vecs  [][]int64
	elem  field.Elem
	ops   int64
	err   error
}

// actorParty is one BGW party: it owns its share slots and its private
// randomness, and talks to its peers only through the transport. The
// run loop consumes facade commands until the channel closes.
type actorParty struct {
	id, p, t int
	rng      *randx.RNG
	weights  []field.Elem
	conn     transport.PartyConn
	cmds     chan *actorCmd
	workers  int // per-party pool bound for batched local arithmetic

	sc       []field.Elem   // kept scalar shares (Keep), indexed by facade refs
	vc       [][]field.Elem // kept vector shares (KeepVec)
	dec      []field.Elem   // decode scratch, reused across rounds
	fieldOps int64
	err      error

	// Plan execution: the party's arena column, recycled by every
	// opBegin, and the scratch its steps reuse.
	arena    []field.Elem
	ext      [][]field.Elem
	k        kernel
	highs    []field.Elem
	reshared []field.Elem // degree-t shares out of a reshare
	sub      []field.Elem // one value's P sub-shares
	opened   []field.Elem // reconstructed values of an opening
	mine     []field.Elem // this party's shares of an opening
	bufs     [][]byte     // per-peer send frames of the current round
}

func (a *actorParty) run() {
	for cmd := range a.cmds {
		if a.err != nil {
			if cmd.reply != nil {
				cmd.reply <- actorReply{party: a.id, err: a.err}
			}
			continue
		}
		if err := a.exec(cmd); err != nil {
			a.err = fmt.Errorf("bgw: party %d: %w", a.id, err)
			// Tear down our endpoint so peers blocked on our traffic
			// fail fast instead of hanging mid-round.
			a.conn.Close()
			if cmd.reply != nil {
				cmd.reply <- actorReply{party: a.id, err: a.err}
			}
		}
	}
}

// exec performs one command. Commands carrying a reply channel must
// send exactly one reply on success; on error the run loop replies.
func (a *actorParty) exec(c *actorCmd) error {
	switch c.op {
	case opAdditive:
		c.reply <- actorReply{party: a.id, elem: field.Mul(c.weights[a.id], a.sc[c.a])}
	case opBarrier:
		c.reply <- actorReply{party: a.id, ops: a.fieldOps}
	case opBegin:
		a.begin(c.exec)
	case opInputs:
		return a.shareInputs()
	case opLocal:
		lv := &a.k.prog.Levels[c.k]
		a.k.local(a.k.prog.code(lv.Local))
		a.fieldOps += lv.LocalOps
	case opLevel:
		return a.mulLevel(c.k)
	case opOpens:
		return a.openLevel(c)
	case opKeep:
		a.sc = append(a.sc, a.k.s[c.a])
	case opKeepVec:
		a.vc = append(a.vc, append([]field.Elem(nil), a.k.vec(int32(c.a), int32(c.k))...))
	default:
		return fmt.Errorf("unknown opcode %d", c.op)
	}
	return nil
}

// shareInput runs one input exchange: the owner Shamir-shares the
// len(dst) values value(k) from its stream and sends each peer one
// frame with that peer's shares; the others decode theirs. Every party
// ends with its own shares in dst.
func (a *actorParty) shareInput(owner int, dst []field.Elem, value func(k int) field.Elem) error {
	if owner != a.id {
		buf, err := a.conn.Recv(owner)
		if err != nil {
			return err
		}
		return decodeElems(dst, buf, owner, "input")
	}
	n := len(dst)
	bufs := a.frames(8 * n)
	for k := range dst {
		shamir.ShareInto(a.sub, value(k), a.t, a.rng)
		for j, b := range bufs {
			if j == a.id {
				dst[k] = a.sub[j]
			} else {
				putElem(b[8*k:], a.sub[j])
			}
		}
	}
	a.fieldOps += int64(n * a.p * (a.t + 1))
	return a.sendFrames(n)
}

// reshare runs one degree-reduction round for a batch of degree-2t
// values: Shamir-share each local value (value-major on the party's
// stream), send every peer its sub-shares in one frame, and combine the
// received sub-shares with the Lagrange weights. Sends never block
// (transport guarantee), so the all-send-then-all-receive shape cannot
// deadlock. Received payloads are decoded into the party's scratch
// before the next Recv, per the transport ownership rule. The result is
// party scratch, valid until the next reshare.
func (a *actorParty) reshare(highs []field.Elem) ([]field.Elem, error) {
	n := len(highs)
	bufs := a.frames(8 * n)
	a.reshared = growElems(a.reshared, n)
	out, wi := a.reshared, a.weights[a.id]
	for m, h := range highs {
		shamir.ShareInto(a.sub, h, a.t, a.rng)
		for j, b := range bufs {
			if j != a.id {
				putElem(b[8*m:], a.sub[j])
			}
		}
		out[m] = field.Mul(wi, a.sub[a.id])
	}
	if err := a.sendFrames(n); err != nil {
		return nil, err
	}
	a.dec = growElems(a.dec, n)
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		buf, err := a.conn.Recv(j)
		if err != nil {
			return nil, err
		}
		if err := decodeElems(a.dec, buf, j, "reshare"); err != nil {
			return nil, err
		}
		field.MulAddVec(out, a.dec, a.weights[j])
	}
	// Per-party slice of the engine-level reshare cost model, so the
	// sum over parties matches the monolithic engine's accounting.
	a.fieldOps += int64(n * (a.p + a.t + 1))
	return out, nil
}

// openValues runs one opening round for a batch of shared values: every
// party broadcasts its shares and reconstructs by Lagrange
// interpolation at zero. The result is party scratch, valid until the
// next opening.
func (a *actorParty) openValues(mine []field.Elem) ([]field.Elem, error) {
	n := len(mine)
	for j, b := range a.frames(8 * n) {
		if j == a.id {
			continue
		}
		for m, v := range mine {
			putElem(b[8*m:], v)
		}
	}
	if err := a.sendFrames(n); err != nil {
		return nil, err
	}
	a.opened = growElems(a.opened, n)
	vals := a.opened
	field.MulConstVec(vals, mine, a.weights[a.id])
	a.dec = growElems(a.dec, n)
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		buf, err := a.conn.Recv(j)
		if err != nil {
			return nil, err
		}
		if err := decodeElems(a.dec, buf, j, "opening"); err != nil {
			return nil, err
		}
		field.MulAddVec(vals, a.dec, a.weights[j])
	}
	a.fieldOps += int64(n)
	return vals, nil
}

// frames draws one pooled send frame of size bytes per peer into
// a.bufs (the own index stays nil).
func (a *actorParty) frames(size int) [][]byte {
	if a.bufs == nil {
		a.bufs = make([][]byte, a.p)
	}
	for j := range a.bufs {
		if j != a.id {
			a.bufs[j] = transport.GetPayload(size)
		}
	}
	return a.bufs
}

// sendFrames sends every peer its frame from a.bufs as one frame of
// msgs logical messages; the transport owns the frames afterwards.
func (a *actorParty) sendFrames(msgs int) error {
	for j, b := range a.bufs {
		if j == a.id {
			continue
		}
		a.bufs[j] = nil
		if err := a.conn.SendN(j, b, msgs); err != nil {
			return err
		}
	}
	return nil
}

// ---- plan execution ----

// begin points the party's kernel at its recycled arena column and the
// execution's bindings.
func (a *actorParty) begin(x *actorExec) {
	a.arena = growElems(a.arena, x.prog.Slots)
	a.ext = a.ext[:0]
	for _, ref := range x.ext {
		a.ext = append(a.ext, a.vc[ref])
	}
	a.k = kernel{prog: x.prog, s: a.arena, ext: a.ext, consts: x.consts,
		indices: x.indices, inputs: x.inputs, inputVecs: x.inputVecs}
}

// shareInputs runs the input round in program order, every input one
// exchange straight into the arena.
func (a *actorParty) shareInputs() error {
	prog := a.k.prog
	for _, in := range prog.code(prog.Inputs) {
		dst := a.k.s[in.Dst : in.Dst+in.width()]
		if err := a.shareInput(int(in.B), dst, func(k int) field.Elem { return a.k.input(&in, int32(k)) }); err != nil {
			return err
		}
	}
	return nil
}

// mulLevel computes the level's degree-2t products on the party's
// column and reshares them in one frame per peer into the gates' slots.
func (a *actorParty) mulLevel(level int) error {
	lv := &a.k.prog.Levels[level]
	code := a.k.prog.code(lv.Mul)
	n := len(code)
	a.highs = growElems(a.highs, n)
	parallelChunks(n, clampWorkers(a.workers, n), func(_, lo, hi int) {
		a.k.mul(code[lo:hi], a.highs[lo:hi])
	})
	a.fieldOps += lv.MulOps
	out, err := a.reshare(a.highs)
	if err != nil {
		return err
	}
	for m, in := range code {
		a.k.s[in.Dst] = out[m]
	}
	return nil
}

// openLevel opens the program's outputs: the scalars as one batch, each
// vector as its own; party 0 reports the values.
func (a *actorParty) openLevel(c *actorCmd) error {
	code := a.k.prog.code(a.k.prog.Opens)
	scalars := openScalars(code)
	r := actorReply{party: a.id}
	if scalars > 0 {
		a.mine = growElems(a.mine, scalars)
		for m, in := range code[:scalars] {
			a.mine[m] = a.k.s[in.A]
		}
		vals, err := a.openValues(a.mine)
		if err != nil {
			return err
		}
		if a.id == 0 {
			r.vals = toInt64s(vals)
		}
	}
	for _, in := range code[scalars:] {
		vals, err := a.openValues(a.k.vec(in.A, in.N))
		if err != nil {
			return err
		}
		if a.id == 0 {
			r.vecs = append(r.vecs, toInt64s(vals))
		}
	}
	c.reply <- r
	return nil
}

func toInt64s(vals []field.Elem) []int64 {
	out := make([]int64, len(vals))
	for k, v := range vals {
		out[k] = field.ToInt64(v)
	}
	return out
}

func putElem(b []byte, e field.Elem) { binary.BigEndian.PutUint64(b, uint64(e)) }
