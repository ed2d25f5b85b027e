// Package sharetaintfixture exercises the sharetaint analyzer: share-
// typed values must never reach fmt, log, slog, or obs sinks, whether
// passed directly, buried inside a container or struct, or routed
// through intermediate functions (the interprocedural taint engine
// follows the flow across call boundaries).
package sharetaintfixture

import (
	"fmt"
	"log"
	"log/slog"

	"sqm/internal/beaver"
	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/field"
	"sqm/internal/obs"
)

// wrapper buries a share inside a struct to test containment.
type wrapper struct {
	Round int
	Share bgw.Shared
}

// Bad leaks shares through every sink family.
func Bad(s bgw.Shared, v bgw.SharedVec, t beaver.Triple, w wrapper) {
	fmt.Println(s)                             // want "secret share value of type sqm/internal/bgw.Shared"
	fmt.Printf("%v\n", v)                      // want "secret share value of type sqm/internal/bgw.SharedVec"
	_ = fmt.Sprintf("%+v", t)                  // want "secret share value of type sqm/internal/beaver.Triple"
	log.Println(w)                             // want "secret share value of type sqm/internal/bgw.Shared"
	slog.Info("debug", "sh", s)                // want "secret share value of type sqm/internal/bgw.Shared"
	_ = fmt.Errorf("bad: %v", []bgw.Shared{s}) // want "secret share value of type sqm/internal/bgw.Shared"
	_ = obs.String("share", fmt.Sprint(s))     // want "secret share value of type sqm/internal/bgw.Shared" "flows to obs telemetry sink through an interprocedural path"
}

// describe and render form a two-hop interprocedural leak: the share
// enters describe, crosses into render as an opaque any, and only
// there meets the sink. The diagnostic anchors at the sink with a
// witness naming every call boundary.
func describe(s bgw.Shared) string {
	return render(s)
}

func render(v any) string {
	return fmt.Sprintf("state=%v", v) // want "flows to fmt sink through an interprocedural path"
}

// BadDeep drives the two-hop chain.
func BadDeep(s bgw.Shared) {
	_ = describe(s)
}

// BadConverted leaks the additive addends an evaluator converts a kept
// sharing to: the conversion's result is share material even though
// its type is plain field elements and no share-typed value is named.
func BadConverted(e bgw.Evaluator, w []field.Elem) {
	fmt.Println(e.AdditiveShares(e.Keep(0), w)) // want "flows to fmt sink through an interprocedural path; .* \[source \(bgw.Evaluator\).AdditiveShares"
}

// GoodOpened shows the sanitized flow: the result of a plan run over
// shared columns carries their taint, but Result.Opened is a sanctioned
// declassification point, so the opened int64 may be logged freely.
func GoodOpened(plan *circuit.Plan, e bgw.Evaluator, col bgw.Vec) {
	res, err := plan.Execute(e, circuit.Bindings{ExtVecs: []bgw.Vec{col}})
	if err != nil {
		return
	}
	fmt.Printf("opened: %d\n", res.Opened(0))
}

// Suppressed shows a reviewed escape hatch.
func Suppressed(s bgw.Shared) {
	//lint:ignore sharetaint fixture demonstrating a reviewed suppression
	fmt.Println(s)
}

// SuppressedMultiline shows one directive covering a call spread over
// several lines: diagnostics anchor at the argument positions, and the
// directive's range extends over the whole statement.
func SuppressedMultiline(s bgw.Shared, v bgw.SharedVec) {
	//lint:ignore sharetaint fixture demonstrating a multi-line suppression
	fmt.Println(
		s,
		v,
	)
}

// Good logs only non-secret derivatives.
func Good(vs []bgw.Shared) {
	fmt.Printf("holding %d shares\n", len(vs))
	slog.Info("round done", "shares", len(vs))
	_ = obs.Int("shares", len(vs))
}
