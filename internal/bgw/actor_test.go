package bgw_test

import (
	"slices"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/field"
	"sqm/internal/transport"
)

// evalProgram shares two columns in a setup plan, then runs one plan
// exercising every recorded operation twice with different bindings,
// and returns all opened values in order. Openings only depend on the
// secret inputs — BGW computes exactly — so every backend must produce
// the identical trace.
func evalProgram(t *testing.T, ev bgw.Evaluator) []int64 {
	t.Helper()
	cols := shareCols(t, ev, []int64{1, -2, 3, -4}, []int64{5, 6, -7, 8})

	p := ev.Parties()
	b := circuit.NewBuilder(p, ev.Threshold())
	x := b.Input(0, 37)
	y := b.InputElem(1, field.FromInt64(-12))
	z := b.InputParam(2)
	w := b.InputVecParam(1, 4)
	c := b.ConstParam()
	row := b.IndexParam()
	u, v := b.ExtVec(4), b.ExtVec(4)

	b.OpenIdx(b.Add(x, y))
	b.OpenIdx(b.Sub(x, z))
	b.OpenIdx(b.AddConst(y, 99))
	b.OpenIdx(b.MulConst(z, -3))
	b.OpenIdx(b.AddConstP(x, c))
	b.OpenIdx(b.MulConstP(y, c))
	xy := b.Mul(x, y)
	b.OpenIdx(xy)
	b.OpenIdx(b.Mul(xy, b.AddConst(z, 1))) // depth 2
	b.OpenIdx(b.Zero())
	b.OpenIdx(b.InnerProduct([]bgw.Val{x, y, z}, []bgw.Val{z, y, x}))
	b.OpenIdx(b.Dot(u, v))
	b.OpenIdx(b.Dot(w, b.AddVec(u, w)))
	b.OpenIdx(b.At(b.AddVec(u, v), 2))
	b.OpenIdx(b.Mul(b.AtIndex(u, row), b.AtIndex(v, row)))
	b.OpenVecIdx(u)
	b.OpenVecIdx(b.AddVec(w, v))
	b.OpenVecIdx(b.FromScalars([]bgw.Val{x, y, xy}))
	plan := b.MustCompile()

	var out []int64
	for i, bind := range []circuit.Bindings{
		{Inputs: []int64{1000003}, InputVecs: [][]int64{{2, 0, -1, 9}}, Consts: []int64{7}, Indices: []int{3}},
		{Inputs: []int64{-5}, InputVecs: [][]int64{{-8, 4, 4, 1}}, Consts: []int64{-2}, Indices: []int{0}},
	} {
		bind.ExtVecs = cols
		res, err := plan.Execute(ev, bind)
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
		out = append(out, opened(res, plan.Opens())...)
		for k := 0; k < 3; k++ {
			out = append(out, res.OpenedVec(k)...)
		}
	}
	return out
}

func newActorChan(t *testing.T, cfg bgw.Config) *bgw.ActorEngine {
	t.Helper()
	eng, err := bgw.NewActorEngine(cfg, transport.NewChanMesh(cfg.Parties))
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func newActorTCP(t *testing.T, cfg bgw.Config) *bgw.ActorEngine {
	t.Helper()
	mesh, err := transport.NewTCPMesh(cfg.Parties)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	eng, err := bgw.NewActorEngine(cfg, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// mulPlan records x·y for x owned by party 0 and y by party 1, opened.
func mulPlan(parties int, x, y int64) *circuit.Plan {
	b := circuit.NewBuilder(parties, 0)
	b.OpenIdx(b.Mul(b.Input(0, x), b.Input(1, y)))
	return b.MustCompile()
}

// TestActorMatchesMonolithic checks that the party-actor engine opens
// bit-identical values to the monolithic engine over both transports.
func TestActorMatchesMonolithic(t *testing.T) {
	for _, parties := range []int{3, 5} {
		cfg := bgw.Config{Parties: parties, Seed: 42}
		mono, err := bgw.NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		want := evalProgram(t, mono)

		chanEng := newActorChan(t, cfg)
		if got := evalProgram(t, chanEng); !slices.Equal(got, want) {
			t.Errorf("P=%d chan mesh: got %v, want %v", parties, got, want)
		}
		if err := chanEng.Err(); err != nil {
			t.Errorf("P=%d chan mesh: unexpected engine error: %v", parties, err)
		}

		tcpEng := newActorTCP(t, cfg)
		if got := evalProgram(t, tcpEng); !slices.Equal(got, want) {
			t.Errorf("P=%d tcp mesh: got %v, want %v", parties, got, want)
		}
		if err := tcpEng.Err(); err != nil {
			t.Errorf("P=%d tcp mesh: unexpected engine error: %v", parties, err)
		}
	}
}

// TestActorSeedIndependence: opened values must not depend on the share
// randomness, only on the inputs.
func TestActorSeedIndependence(t *testing.T) {
	got1 := evalProgram(t, newActorChan(t, bgw.Config{Parties: 3, Seed: 1}))
	got2 := evalProgram(t, newActorChan(t, bgw.Config{Parties: 3, Seed: 0xdeadbeef}))
	if !slices.Equal(got1, got2) {
		t.Errorf("opened values depend on share randomness: %v vs %v", got1, got2)
	}
}

// TestActorFieldOpsMatchMonolithic: the per-party field-op counters are
// sliced from the monolithic cost model, so their sum must agree; the
// measured traffic must agree with the monolithic engine's metering.
func TestActorFieldOpsMatchMonolithic(t *testing.T) {
	cfg := bgw.Config{Parties: 5, Seed: 7}
	mono, err := bgw.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	evalProgram(t, mono)
	eng := newActorChan(t, cfg)
	evalProgram(t, eng)
	if got, want := eng.Stats(), mono.Stats(); got != want {
		t.Errorf("actor stats %+v, want the monolithic model's %+v", got, want)
	}
}

// TestActorStatsMeasured: the chan mesh counts real traffic; the
// measured counts coincide with the monolithic model (P−1 messages per
// input, P(P−1) per resharing and opening).
func TestActorStatsMeasured(t *testing.T) {
	cfg := bgw.Config{Parties: 3, Seed: 9}
	eng := newActorChan(t, cfg)
	res, err := mulPlan(3, 5, 7).Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 35 {
		t.Fatalf("Open(Mul) = %d, want 35", got)
	}
	st := eng.Stats()
	p := int64(cfg.Parties)
	wantMsgs := 2*(p-1) + p*(p-1) + p*(p-1) // 2 inputs + 1 resharing + 1 opening
	if st.Messages != wantMsgs {
		t.Errorf("Messages = %d, want %d", st.Messages, wantMsgs)
	}
	if st.Bytes != 8*wantMsgs {
		t.Errorf("Bytes = %d, want %d", st.Bytes, 8*wantMsgs)
	}
	eng.ResetStats()
	if st := eng.Stats(); st.Messages != 0 || st.Bytes != 0 || st.FieldOps != 0 || st.Rounds != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
}

// checkAbort executes x·y = 143 on eng, kills party 2's endpoint, and
// demands that the engine fails fast with a sticky error instead of
// hanging and that every later execution opens zeros.
func checkAbort(t *testing.T, eng *bgw.ActorEngine, mesh transport.Mesh) {
	t.Helper()
	plan := mulPlan(3, 11, 13)
	res, err := plan.Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 143 {
		t.Fatalf("pre-abort Open = %d, want 143", got)
	}

	mesh.Conn(2).Close() // party 2 dies

	// The input round or the resharing now fails for the survivors.
	if res, err = plan.Execute(eng, circuit.Bindings{}); err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 0 {
		t.Errorf("post-abort Open = %d, want 0", got)
	}
	if eng.Err() == nil {
		t.Error("Err() = nil after abort, want transport failure")
	}
	// Every later execution is a no-op opening zero values.
	b := circuit.NewBuilder(3, 0)
	b.OpenVecIdx(b.InputVec(0, []int64{1, 2}))
	res, err = b.MustCompile().Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OpenedVec(0); !slices.Equal(got, []int64{0, 0}) {
		t.Errorf("OpenVec after failure = %v, want zeros", got)
	}
}

// TestActorAbort kills one party's endpoint mid-protocol on the
// in-memory mesh.
func TestActorAbort(t *testing.T) {
	mesh := transport.NewChanMesh(3)
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: 3, Seed: 3}, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()
	checkAbort(t, eng, mesh)
}

// TestActorAbortTCP: the same death cascades through real sockets as
// EOFs/resets.
func TestActorAbortTCP(t *testing.T) {
	mesh, err := transport.NewTCPMesh(3)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: 3, Seed: 3}, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()
	checkAbort(t, eng, mesh)
}

// TestActorAdditiveShares: the additive conversion must reconstruct the
// secret, matching the monolithic semantics.
func TestActorAdditiveShares(t *testing.T) {
	eng := newActorChan(t, bgw.Config{Parties: 3, Seed: 5})
	b := circuit.NewBuilder(3, 0)
	x := b.InputElem(0, field.FromInt64(12345))
	if got := field.ToInt64(secretOf(eng, run(t, eng, b, circuit.Bindings{}).ValOf(x))); got != 12345 {
		t.Errorf("sum of additive shares = %d, want 12345", got)
	}
}

// TestActorCloseIdempotent: Close twice, then verify an execution after
// close opens zero values without hanging.
func TestActorCloseIdempotent(t *testing.T) {
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: 3, Seed: 1}, transport.NewChanMesh(3))
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	b := circuit.NewBuilder(3, 0)
	b.OpenIdx(b.InputParam(0))
	plan := b.MustCompile()
	res, err := plan.Execute(eng, circuit.Bindings{Inputs: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 4 {
		t.Fatalf("Open = %d, want 4", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if res, err = plan.Execute(eng, circuit.Bindings{Inputs: []int64{9}}); err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 0 {
		t.Errorf("Open after Close = %d, want 0", got)
	}
}
