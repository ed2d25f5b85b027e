package bgw_test

import (
	"errors"
	"testing"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/transport"
)

// TestActorRecvTimeoutSurfacesAsPartyFailure: with Config.RecvTimeout
// set, a silently lossy link fails the starved party with a typed
// transport.ErrTimeout instead of hanging the protocol forever.
func TestActorRecvTimeoutSurfacesAsPartyFailure(t *testing.T) {
	// Link 0→1 drops every message: party 1 starves waiting for party
	// 0's input share while 0's send succeeds, the silent-loss shape a
	// deadline exists to catch.
	mesh := transport.NewFaultMesh(transport.NewChanMesh(3), transport.FaultProfile{
		Seed:  1,
		Links: map[[2]int]transport.LinkFault{{0, 1}: {DropProb: 1}},
	})
	eng, err := bgw.NewActorEngine(bgw.Config{
		Parties:     3,
		Latency:     time.Nanosecond,
		Seed:        7,
		RecvTimeout: 50 * time.Millisecond,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	b := circuit.NewBuilder(3, 0)
	b.OpenIdx(b.Input(0, 42))
	plan := b.MustCompile()
	done := make(chan error, 1)
	go func() {
		_, err := plan.Execute(eng, circuit.Bindings{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("protocol hung despite RecvTimeout")
	}
	if err := eng.Err(); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("engine error = %v, want errors.Is(err, transport.ErrTimeout)", err)
	}
}

// TestActorRecvTimeoutHarmlessWhenHealthy: a generous deadline on a
// healthy mesh changes nothing.
func TestActorRecvTimeoutHarmlessWhenHealthy(t *testing.T) {
	mesh := transport.NewChanMesh(3)
	eng, err := bgw.NewActorEngine(bgw.Config{
		Parties:     3,
		Latency:     time.Nanosecond,
		Seed:        7,
		RecvTimeout: 5 * time.Second,
	}, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := mulPlan(3, 6, 7).Execute(eng, circuit.Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Opened(0); got != 42 {
		t.Fatalf("Open = %d, want 42", got)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
