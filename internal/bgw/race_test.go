package bgw_test

import (
	"runtime"
	"testing"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/transport"
)

// bigBatchOpens runs one wide level of mixed gates (products, fused
// scalar inner products, vector dots) plus a second level of dots on
// the monolithic engine with the given pool bound and opens everything
// — wide enough that every worker owns several gates, so the chunked
// reshare path is actually exercised (and raced) when workers > 1.
func bigBatchOpens(t *testing.T, workers int) []int64 {
	t.Helper()
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 99, Workers: workers})
	if err != nil {
		t.Fatalf("NewEngine(workers=%d): %v", workers, err)
	}
	b := circuit.NewBuilder(4, 0)
	var scalars []bgw.Val
	for i := 0; i < 8; i++ {
		scalars = append(scalars, b.Input(i%4, int64(i*i)-31))
	}
	u := b.InputVec(0, []int64{3, -1, 4, 1, -5, 9, 2, -6})
	v := b.InputVec(1, []int64{-2, 7, 1, -8, 2, 8, -1, 8})

	var gates []bgw.Val
	for i := 0; i < 64; i++ {
		switch i % 3 {
		case 0:
			gates = append(gates, b.Mul(scalars[i%8], scalars[(i+3)%8]))
		case 1:
			gates = append(gates, b.InnerProduct(
				[]bgw.Val{scalars[i%8], scalars[(i+1)%8], scalars[(i+2)%8]},
				[]bgw.Val{scalars[(i+5)%8], scalars[(i+6)%8], scalars[(i+7)%8]}))
		case 2:
			gates = append(gates, b.Dot(u, v))
		}
	}
	w := b.FromScalars(gates[:8])
	gates = append(gates, b.Dot(w, u), b.Dot(w, w), b.Dot(v, w))
	for _, g := range gates {
		b.OpenIdx(g)
	}
	plan := b.MustCompile()
	if plan.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", plan.Depth())
	}
	res, err := plan.Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	return opened(res, plan.Opens())
}

// TestMonoWorkerPoolDifferentialRace: the monolithic engine's batched
// levels must open bit-identical values for every pool size. Workers=8
// forces the chunked parallel path even on a single-CPU machine, so
// -race sweeps the goroutine interleavings while the differential pins
// the outputs to the serial baseline.
func TestMonoWorkerPoolDifferentialRace(t *testing.T) {
	want := bigBatchOpens(t, 1)
	for _, w := range []int{2, 8} {
		got := bigBatchOpens(t, w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d opened %d values, serial %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d output %d = %d, serial %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestActorWorkerPoolChaosRace runs the full evaluator program on the
// actor engine — per-party worker pools, pooled transport frames — over
// a FaultMesh delaying every link, and demands the monolithic engine's
// exact openings. The delay forwarders make frame lifetimes genuinely
// concurrent with the party goroutines, so -race catches any pooled
// buffer recycled while still in flight.
func TestActorWorkerPoolChaosRace(t *testing.T) {
	mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 123})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want := evalProgram(t, mono)

	mesh := transport.NewFaultMesh(transport.NewChanMesh(4), transport.FaultProfile{
		Seed: 5,
		All:  transport.LinkFault{Delay: 50 * time.Microsecond},
	})
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: 123, Workers: 8}, mesh)
	if err != nil {
		t.Fatalf("NewActorEngine: %v", err)
	}
	defer eng.Close()
	got := evalProgram(t, eng)
	if err := eng.Err(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("actor opened %d values, mono %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("actor output %d = %d, mono %d", i, got[i], want[i])
		}
	}
	if inj := mesh.Injected(); inj.Delays == 0 {
		t.Errorf("chaos profile injected no delays: %+v", inj)
	}
}

// TestActorCloseNoGoroutineLeak: Close must join the party actors, the
// chaos mesh's delay forwarders, and any worker-pool goroutines —
// repeated sessions must not accrete anything.
func TestActorCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		mesh := transport.NewFaultMesh(transport.NewChanMesh(4), transport.FaultProfile{
			Seed: uint64(iter),
			All:  transport.LinkFault{Delay: 20 * time.Microsecond},
		})
		eng, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: uint64(iter), Workers: 4}, mesh)
		if err != nil {
			t.Fatalf("NewActorEngine: %v", err)
		}
		evalProgram(t, eng)
		if err := eng.Err(); err != nil {
			t.Fatalf("engine failed: %v", err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after Close: %d live, %d at baseline\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
