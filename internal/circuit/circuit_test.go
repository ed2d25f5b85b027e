package circuit

import (
	"bytes"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/field"
	"sqm/internal/obs"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// buildPoly records (x·y + 3)·x − y with one opened output and returns
// the builder: depth 2, two mul gates.
func buildPoly(b *Builder) {
	x := b.Input(0, 5)
	y := b.Input(1, -7)
	xy := b.Mul(x, y)
	s := b.AddConst(xy, 3)
	p := b.Mul(s, x)
	b.OpenIdx(b.Sub(p, y))
}

func TestCompileLevels(t *testing.T) {
	b := NewBuilder(4, 0)
	buildPoly(b)
	plan := b.MustCompile()
	if plan.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", plan.Depth())
	}
	if plan.MulGates() != 2 {
		t.Fatalf("mul gates = %d, want 2", plan.MulGates())
	}
	// input round + 2 levels + output round
	if plan.Rounds() != 4 {
		t.Fatalf("rounds = %d, want 4", plan.Rounds())
	}
	if plan.EagerRounds() != 4 {
		t.Fatalf("eager rounds = %d, want 4", plan.EagerRounds())
	}
}

func TestExecuteMatchesPlainAcrossEngines(t *testing.T) {
	b := NewBuilder(4, 0)
	buildPoly(b)
	plan := b.MustCompile()

	want := int64((5*-7+3)*5 - (-7))
	pr, err := plan.Plain(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Opened(0); got != want {
		t.Fatalf("plain = %d, want %d", got, want)
	}

	mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := plan.Execute(mono, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mr.Opened(0); got != want {
		t.Fatalf("mono = %d, want %d", got, want)
	}
	if r := mono.Stats().Rounds; r != int64(plan.Rounds()) {
		t.Fatalf("mono rounds = %d, want %d", r, plan.Rounds())
	}

	actor, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: 11}, transport.NewChanMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	ar, err := plan.Execute(actor, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ar.Opened(0); got != want {
		t.Fatalf("actor = %d, want %d", got, want)
	}
	if r := actor.Stats().Rounds; r != int64(plan.Rounds()) {
		t.Fatalf("actor rounds = %d, want %d", r, plan.Rounds())
	}
}

// TestExecuteEmitsLevelSpans pins the executor's instrumentation: with
// a debug-level recorder on the engine, every batched level and the
// open round produce spans, observed in the recorder's registry.
func TestExecuteEmitsLevelSpans(t *testing.T) {
	rec := obs.NewLog(&bytes.Buffer{}, "json", obs.LevelDebug)
	b := NewBuilder(4, 0)
	buildPoly(b)
	plan := b.MustCompile()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 11, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(eng, Bindings{}); err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	if got := m.Histogram("circuit.exec.seconds").Snapshot().Count; got != 1 {
		t.Fatalf("circuit.exec spans = %d, want 1", got)
	}
	if got := m.Histogram("circuit.level.seconds").Snapshot().Count; got != int64(plan.Depth()) {
		t.Fatalf("circuit.level spans = %d, want %d", got, plan.Depth())
	}
	if got := m.Histogram("circuit.open.seconds").Snapshot().Count; got != 1 {
		t.Fatalf("circuit.open spans = %d, want 1", got)
	}
}

func TestParamsRebindAcrossExecutions(t *testing.T) {
	b := NewBuilder(4, 0)
	c := b.ConstParam()
	x := b.InputParam(0)
	v := b.InputVecParam(1, 3)
	d := b.Dot(v, v)
	b.OpenIdx(b.AddConstP(b.Mul(x, d), c))
	plan := b.MustCompile()

	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		c, x  int64
		vs    []int64
		wants int64
	}{
		{c: 10, x: 2, vs: []int64{1, 2, 3}, wants: 2*14 + 10},
		{c: -4, x: -3, vs: []int64{0, 5, -1}, wants: -3*26 - 4},
	} {
		res, err := plan.Execute(eng, Bindings{Consts: []int64{tc.c}, Inputs: []int64{tc.x}, InputVecs: [][]int64{tc.vs}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Opened(0); got != tc.wants {
			t.Fatalf("run %d: got %d, want %d", i, got, tc.wants)
		}
		pr, err := plan.Plain(Bindings{Consts: []int64{tc.c}, Inputs: []int64{tc.x}, InputVecs: [][]int64{tc.vs}})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Opened(0) != tc.wants {
			t.Fatalf("run %d plain: got %d, want %d", i, pr.Opened(0), tc.wants)
		}
	}
}

// TestBatchedLevelIsOneFrameExchange: N independent muls of one level
// must cost one reshare exchange — P(P−1) frames — regardless of N.
func TestBatchedLevelIsOneFrameExchange(t *testing.T) {
	const p, n = 4, 9
	build := func() *Plan {
		b := NewBuilder(p, 0)
		xs := make([]bgw.Val, n)
		for i := range xs {
			xs[i] = b.Input(i%p, int64(i+1))
		}
		prods := make([]bgw.Val, n)
		for i := range xs {
			prods[i] = b.Mul(xs[i], xs[(i+1)%n])
		}
		for _, v := range prods {
			b.OpenIdx(v)
		}
		return b.MustCompile()
	}
	plan := build()
	if plan.Depth() != 1 || plan.MulGates() != n {
		t.Fatalf("depth %d mulgates %d, want 1 and %d", plan.Depth(), plan.MulGates(), n)
	}

	eng, err := bgw.NewActorEngine(bgw.Config{Parties: p, Seed: 99}, transport.NewChanMesh(p))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Rounds != int64(plan.Rounds()) {
		t.Errorf("planned rounds = %d, want %d", st.Rounds, plan.Rounds())
	}
	// Planned frames: n input frames of (p−1) each… inputs are per-owner
	// sends, then one reshare exchange, then one batched opening.
	wantPlanned := int64(n*(p-1) + p*(p-1) + p*(p-1))
	if st.Frames != wantPlanned {
		t.Errorf("planned frames = %d, want %d", st.Frames, wantPlanned)
	}
	// Eager execution (one round per gate) is reported analytically.
	if got, want := plan.EagerRounds(), n+2; got != want {
		t.Errorf("eager rounds = %d, want %d", got, want)
	}
	// Eager frames: one reshare exchange per gate, one opening exchange
	// per output.
	wantEager := n*(p-1) + n*p*(p-1) + n*p*(p-1)
	if got := plan.EagerFrames(); got != wantEager {
		t.Errorf("eager frames = %d, want %d", got, wantEager)
	}
	for i := 0; i < n; i++ {
		if want := int64((i + 1) * ((i+1)%n + 1)); res.Opened(i) != want {
			t.Fatalf("output %d = %d, want %d", i, res.Opened(i), want)
		}
	}
}

// TestExtValBridgesPlans: shares produced by a setup plan feed a second
// plan through ExtVec bindings.
func TestExtValBridgesPlans(t *testing.T) {
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	setup := NewBuilder(4, 0)
	colH := setup.InputVec(0, []int64{4, -2, 9})
	setupPlan := setup.MustCompile()
	sres, err := setupPlan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	col := sres.VecOf(colH)

	b := NewBuilder(4, 0)
	extH := b.ExtVec(3)
	b.OpenIdx(b.Dot(extH, extH))
	plan := b.MustCompile()
	res, err := plan.Execute(eng, Bindings{ExtVecs: []bgw.Vec{col}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Opened(0), int64(16+4+81); got != want {
		t.Fatalf("dot = %d, want %d", got, want)
	}
}

// TestAtIndexReadsBoundRows: index parameters select the rows of
// external vectors per execution, on both engines, and the same shape
// over an input vector runs plain.
func TestAtIndexReadsBoundRows(t *testing.T) {
	col := []int64{4, -2, 9, 7, -5}
	b := NewBuilder(4, 0)
	ext := b.ExtVec(len(col))
	i, j := b.IndexParam(), b.IndexParam()
	b.OpenIdx(b.Mul(b.AtIndex(ext, i), b.AtIndex(ext, j)))
	plan := b.MustCompile()

	mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	actor, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: 5}, transport.NewChanMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	defer actor.Close()
	for _, eng := range []bgw.Evaluator{mono, actor} {
		setup := NewBuilder(4, 0)
		h := setup.InputVec(2, col)
		sres, err := setup.MustCompile().Execute(eng, Bindings{})
		if err != nil {
			t.Fatal(err)
		}
		v := sres.VecOf(h)
		for _, rows := range [][]int{{0, 2}, {4, 3}, {1, 1}} {
			res, err := plan.Execute(eng, Bindings{ExtVecs: []bgw.Vec{v}, Indices: rows})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Opened(0), col[rows[0]]*col[rows[1]]; got != want {
				t.Fatalf("%T rows %v: got %d, want %d", eng, rows, got, want)
			}
		}
		if _, err := plan.Execute(eng, Bindings{ExtVecs: []bgw.Vec{v}, Indices: []int{0, 5}}); err == nil {
			t.Fatalf("%T: out-of-range index accepted", eng)
		}
	}

	pb := NewBuilder(4, 0)
	in := pb.InputVec(1, col)
	k := pb.IndexParam()
	pb.OpenIdx(pb.AtIndex(in, k))
	pr, err := pb.MustCompile().Plain(Bindings{Indices: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Opened(0) != col[3] {
		t.Fatalf("plain AtIndex = %d, want %d", pr.Opened(0), col[3])
	}
}

// TestValOfAfterRecyclePanics pins the handle lifetime rule: a result's
// shares can be kept only until the engine runs its next plan.
func TestValOfAfterRecyclePanics(t *testing.T) {
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(4, 0)
	x := b.Input(0, 6)
	plan := b.MustCompile()
	first, err := plan.Execute(eng, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	kept := first.ValOf(x)
	if _, err := plan.Execute(eng, Bindings{}); err != nil {
		t.Fatal(err)
	}
	var sum field.Elem
	for _, a := range eng.AdditiveShares(kept, shamir.LagrangeAtZero(shamir.PartyPoints(4))) {
		sum = field.Add(sum, a)
	}
	if got := field.ToInt64(sum); got != 6 {
		t.Fatalf("kept handle holds %d, want 6", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ValOf on a recycled arena did not panic")
		}
	}()
	first.ValOf(x)
}
