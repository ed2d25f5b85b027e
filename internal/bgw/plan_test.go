package bgw_test

import (
	"errors"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/transport"
)

// corruptMesh overwrites the first element of the frame-th frame party
// to receives from party from with 2^64−1, a value outside the field.
type corruptMesh struct {
	transport.Mesh
	from, to, frame int
}

func (m *corruptMesh) Conn(i int) transport.PartyConn {
	c := m.Mesh.Conn(i)
	if i != m.to {
		return c
	}
	return &corruptConn{PartyConn: c, m: m}
}

type corruptConn struct {
	transport.PartyConn
	m    *corruptMesh
	seen int
}

func (c *corruptConn) Recv(from int) ([]byte, error) {
	buf, err := c.PartyConn.Recv(from)
	if err == nil && from == c.m.from {
		c.seen++
		if c.seen == c.m.frame {
			for i := 0; i < 8; i++ {
				buf[i] = 0xff
			}
		}
	}
	return buf, err
}

// TestNonCanonicalFrameFailsTyped: a peer frame carrying 2^64−1 in the
// input, reshare or opening round fails the execution with
// ErrNonCanonical instead of opening a wrong value.
func TestNonCanonicalFrameFailsTyped(t *testing.T) {
	b := circuit.NewBuilder(4, 0)
	x, y := b.Input(0, 5), b.Input(1, 7)
	b.OpenIdx(b.Mul(x, y))
	plan := b.MustCompile()
	// Frames party 1 receives from party 0: x's share, the level's
	// sub-shares, the opening.
	for frame, round := range []string{1: "input", 2: "reshare", 3: "opening"} {
		if frame == 0 {
			continue
		}
		mesh := &corruptMesh{Mesh: transport.NewChanMesh(4), from: 0, to: 1, frame: frame}
		eng, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: 3}, mesh)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Execute(eng, circuit.Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(eng.Err(), bgw.ErrNonCanonical) {
			t.Errorf("%s round: Err() = %v, want ErrNonCanonical", round, eng.Err())
		}
		if got := res.Opened(0); got == 35 || got != 0 {
			t.Errorf("%s round: opened %d after a rejected frame", round, got)
		}
		eng.Close()
	}
}

// TestActorPartyStorageStopsGrowing runs the same gradient-shaped plan
// (external columns read through index parameters, noise inputs, two
// multiplicative levels) 100 times on the actor engine: once the arena
// has grown to the plan's width, the parties' share storage must stay
// flat — executions recycle the arena instead of appending share slots.
func TestActorPartyStorageStopsGrowing(t *testing.T) {
	const p, m, d, rows = 4, 64, 3, 16
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: p, Seed: 9}, transport.NewChanMesh(p))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	setup := circuit.NewBuilder(p, 0)
	colH := make([]bgw.Vec, d)
	for j := range colH {
		vs := make([]int64, m)
		for i := range vs {
			vs[i] = int64((i*7+j*3)%11 - 5)
		}
		colH[j] = setup.InputVec(j%p, vs)
	}
	sres, err := setup.MustCompile().Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]bgw.Vec, d)
	for j := range cols {
		cols[j] = sres.VecOf(colH[j])
	}

	b := circuit.NewBuilder(p, 0)
	ext := make([]bgw.Vec, d)
	for j := range ext {
		ext[j] = b.ExtVec(m)
	}
	w := b.ConstParam()
	us := make([]bgw.Val, rows)
	xs := make([]bgw.Val, rows)
	for r := range us {
		row := b.IndexParam()
		c := b.Zero()
		for j := range ext {
			c = b.Add(c, b.MulConstP(b.AtIndex(ext[j], row), w))
		}
		us[r] = b.Mul(c, c)
		xs[r] = b.AtIndex(ext[0], row)
	}
	b.OpenIdx(b.Add(b.InnerProduct(xs, us), b.InputParam(2)))
	plan := b.MustCompile()

	indices := make([]int, rows)
	var grown int
	for run := 0; run < 100; run++ {
		for r := range indices {
			indices[r] = (run*5 + r*3) % m
		}
		if _, err := plan.Execute(eng, circuit.Bindings{
			Consts: []int64{int64(run%4 + 1)}, Inputs: []int64{int64(run)},
			ExtVecs: cols, Indices: indices,
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		switch n := bgw.PartyStorage(eng); {
		case run == 1:
			grown = n
		case run > 1 && n != grown:
			t.Fatalf("run %d: parties hold %d share elements, %d after run 1", run, n, grown)
		}
	}
}
