package bgw

import (
	"time"

	"sqm/internal/field"
	"sqm/internal/obs"
)

// Val is an opaque handle to one secret-shared scalar. Each Evaluator
// implementation issues its own handle type (*Shared for the monolithic
// engine, *ActorShared for the party-actor engine); handles must only
// be passed back to the evaluator that issued them.
type Val interface{}

// Vec is an opaque handle to a secret-shared vector.
type Vec interface {
	// Len returns the number of shared elements.
	Len() int
}

// Evaluator is the MPC backend the SQM protocols run against: the
// monolithic in-process Engine and the party-actor ActorEngine over a
// pluggable transport (the plaintext engine in internal/core bypasses
// sharing entirely, since BGW computes exactly). Protocols never call
// share operations directly; they record a circuit.Builder, compile it
// to a Program and let the circuit executor drive the plan steps
// below.
//
// An execution is Begin, then ShareInputs when the program has inputs,
// RunLocal(0), then RunMul(L) and RunLocal(L) for every level L >= 1,
// then RunOpen when it has outputs; the caller accounts the rounds
// with AdvanceRound. Every step is one call into the party-local
// kernel per party (and, for the actor engine, one broadcast), so the
// cost of driving a plan grows with its depth, not its node count.
//
// Shares live in one arena per engine session, sized to the widest
// program seen and recycled by every Begin. Keep and KeepVec copy a
// value of the current execution out into an ordinary engine handle
// that outlives the arena; Epoch counts Begins so a caller can tell
// that its execution's arena has been recycled.
type Evaluator interface {
	// Parties returns P.
	Parties() int
	// Threshold returns t.
	Threshold() int
	// Latency returns the per-round latency used for simulated time.
	Latency() time.Duration
	// Stats returns a snapshot of the execution counters. For
	// transport-backed evaluators the message/byte counts are measured
	// from real traffic, not modeled.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// AdvanceRound accounts one communication round.
	AdvanceRound()
	// Recorder returns the backend's telemetry sink; never nil (the
	// no-op recorder when telemetry is disabled).
	Recorder() obs.Recorder
	// Err returns the first failure the backend hit (transport abort,
	// EOF mid-round, malformed frame); nil while healthy. Outputs
	// opened after a failure read zero.
	Err() error
	// Close releases backend resources (party goroutines, sockets).
	Close() error

	// Begin sizes the arena for prog and binds one execution's
	// parameters.
	Begin(prog *Program, bind Binding)
	// ShareInputs runs the input round.
	ShareInputs()
	// RunLocal runs a level's linear closure.
	RunLocal(level int)
	// RunMul runs a level's gates as one batched degree reduction.
	RunMul(level int)
	// RunOpen opens the program's outputs: the scalars, then each
	// vector.
	RunOpen() (opened []int64, openedVecs [][]int64)
	// Keep copies the shares in an arena slot out into a scalar handle.
	Keep(slot int32) Val
	// KeepVec copies the n-element vector at ref out into a vector
	// handle, usable as an external binding of a later execution.
	KeepVec(ref int32, n int) Vec
	// Epoch returns the number of executions begun.
	Epoch() uint64

	// AdditiveShares converts the Shamir sharing behind a Keep handle
	// to an additive sharing locally: party i's addend is
	// weights[i]·share_i.
	AdditiveShares(s Val, weights []field.Elem) []field.Elem
}

var (
	_ Evaluator = (*Engine)(nil)
	_ Evaluator = (*ActorEngine)(nil)
)
