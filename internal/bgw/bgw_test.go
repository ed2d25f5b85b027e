package bgw_test

import (
	"slices"
	"testing"
	"testing/quick"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/field"
	"sqm/internal/shamir"
)

func newTestEngine(t testing.TB, parties int) *bgw.Engine {
	t.Helper()
	e, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// run compiles the circuit recorded in b and executes it on eng.
func run(t testing.TB, eng bgw.Evaluator, b *circuit.Builder, bind circuit.Bindings) *circuit.Result {
	t.Helper()
	res, err := b.MustCompile().Execute(eng, bind)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// opened returns the first n scalar outputs of a result.
func opened(res *circuit.Result, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = res.Opened(i)
	}
	return out
}

// shareCols shares column j from party j mod P in a setup plan and
// returns the engine's handles, to bind as a later plan's ExtVecs.
func shareCols(t testing.TB, eng bgw.Evaluator, cols ...[]int64) []bgw.Vec {
	t.Helper()
	b := circuit.NewBuilder(eng.Parties(), eng.Threshold())
	hs := make([]bgw.Vec, len(cols))
	for j, c := range cols {
		hs[j] = b.InputVec(j%eng.Parties(), c)
	}
	res := run(t, eng, b, circuit.Bindings{})
	out := make([]bgw.Vec, len(hs))
	for j, h := range hs {
		out[j] = res.VecOf(h)
	}
	return out
}

// secretOf reconstructs the value behind a kept handle through the
// additive conversion (the addends sum to the secret).
func secretOf(eng bgw.Evaluator, v bgw.Val) field.Elem {
	var sum field.Elem
	for _, a := range eng.AdditiveShares(v, shamir.LagrangeAtZero(shamir.PartyPoints(eng.Parties()))) {
		sum = field.Add(sum, a)
	}
	return sum
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := bgw.NewEngine(bgw.Config{Parties: 2}); err == nil {
		t.Fatal("2 parties must be rejected (no t >= 1 fits)")
	}
	if _, err := bgw.NewEngine(bgw.Config{Parties: 4, Threshold: 2}); err == nil {
		t.Fatal("P < 2t+1 must be rejected")
	}
	e, err := bgw.NewEngine(bgw.Config{Parties: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Threshold() != 2 {
		t.Fatalf("default threshold = %d, want 2", e.Threshold())
	}
	if e.Latency() != bgw.DefaultLatency {
		t.Fatalf("default latency = %v", e.Latency())
	}
}

func TestInputOpenRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	vs := []int64{0, 1, -1, 123456789, -987654321}
	b := circuit.NewBuilder(4, 0)
	for i, v := range vs {
		b.OpenIdx(b.Input(i%4, v))
	}
	if got := opened(run(t, e, b, circuit.Bindings{}), len(vs)); !slices.Equal(got, vs) {
		t.Fatalf("round trip %v -> %v", vs, got)
	}
}

func TestAddSubConst(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	x, y := b.Input(0, 100), b.Input(1, -30)
	b.OpenIdx(b.Add(x, y))
	b.OpenIdx(b.Sub(x, y))
	b.OpenIdx(b.AddConst(x, 5))
	b.OpenIdx(b.MulConst(y, -2))
	b.OpenIdx(b.Zero())
	want := []int64{70, 130, 105, 60, 0}
	if got := opened(run(t, e, b, circuit.Bindings{}), len(want)); !slices.Equal(got, want) {
		t.Fatalf("Add, Sub, AddConst, MulConst, Zero = %v, want %v", got, want)
	}
}

func TestMulMatchesPlaintext(t *testing.T) {
	e := newTestEngine(t, 4)
	cases := [][2]int64{{3, 7}, {-5, 11}, {0, 999}, {-8, -9}, {1 << 20, 1 << 20}}
	b := circuit.NewBuilder(4, 0)
	want := make([]int64, len(cases))
	for i, c := range cases {
		b.OpenIdx(b.Mul(b.Input(0, c[0]), b.Input(1, c[1])))
		want[i] = c[0] * c[1]
	}
	if got := opened(run(t, e, b, circuit.Bindings{}), len(want)); !slices.Equal(got, want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulProperty(t *testing.T) {
	e := newTestEngine(t, 5)
	b := circuit.NewBuilder(5, 0)
	b.OpenIdx(b.Mul(b.InputParam(0), b.InputParam(1)))
	plan := b.MustCompile()
	f := func(a, c int32) bool {
		// Keep the product within the field's signed embedding range.
		x, y := int64(a%(1<<29)), int64(c%(1<<29))
		res, err := plan.Execute(e, circuit.Bindings{Inputs: []int64{x, y}})
		return err == nil && res.Opened(0) == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeepMultiplicationChain(t *testing.T) {
	// Repeated degree reduction: x^8 through 3 squarings.
	e := newTestEngine(t, 3)
	b := circuit.NewBuilder(3, 0)
	s := b.Input(0, 5)
	for i := 0; i < 3; i++ {
		s = b.Mul(s, s)
	}
	b.OpenIdx(s)
	if got := run(t, e, b, circuit.Bindings{}).Opened(0); got != 390625 {
		t.Fatalf("5^8 = %d", got)
	}
	if r := e.Stats().Rounds; r != 5 {
		t.Fatalf("rounds = %d, want input + 3 levels + open", r)
	}
}

func TestInnerProduct(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	as := []bgw.Val{b.Input(0, 1), b.Input(0, 2), b.Input(1, 3)}
	bs := []bgw.Val{b.Input(2, 4), b.Input(2, 5), b.Input(3, 6)}
	b.OpenIdx(b.InnerProduct(as, bs))
	if got := run(t, e, b, circuit.Bindings{}).Opened(0); got != 32 {
		t.Fatalf("InnerProduct = %d", got)
	}
}

func TestInnerProductSingleResharing(t *testing.T) {
	e := newTestEngine(t, 4)
	xs := make([]int64, 10)
	for i := range xs {
		xs[i] = int64(i)
	}
	cols := shareCols(t, e, xs, xs)
	e.ResetStats()
	b := circuit.NewBuilder(4, 0)
	u, v := b.ExtVec(10), b.ExtVec(10)
	var as, bs []bgw.Val
	for i := range xs {
		as = append(as, b.At(u, i))
		bs = append(bs, b.At(v, i))
	}
	b.InnerProduct(as, bs)
	run(t, e, b, circuit.Bindings{ExtVecs: cols})
	if msgs, want := e.Stats().Messages, int64(4*3); msgs != want {
		t.Fatalf("fused inner product used %d messages, want one resharing = %d", msgs, want)
	}
}

func TestStatsMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	b.OpenIdx(b.Mul(b.Input(0, 2), b.Input(1, 3)))
	run(t, e, b, circuit.Bindings{})
	st := e.Stats()
	// Two inputs of 3 messages, one resharing and one opening of 12.
	if st.Messages != 3+3+12+12 || st.Frames != 3+3+12+12 {
		t.Fatalf("Messages = %d, Frames = %d", st.Messages, st.Frames)
	}
	if st.Bytes != 8*st.Messages {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	// P(t+1) per input, P for the product, P(P+t+1) for the resharing,
	// P for the opening.
	if st.FieldOps != 2*4*2+4+4*6+4 {
		t.Fatalf("FieldOps = %d", st.FieldOps)
	}
	if st.Rounds != 3 {
		t.Fatalf("Rounds = %d", st.Rounds)
	}
	if st.NetTime(bgw.DefaultLatency) != 3*bgw.DefaultLatency {
		t.Fatalf("NetTime = %v", st.NetTime(bgw.DefaultLatency))
	}
}

func TestBytesMetering(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	b.OpenIdx(b.Input(0, 2))                      // 3 messages x 8 bytes in, 12 x 8 out
	b.OpenVecIdx(b.InputVec(1, []int64{1, 2, 3})) // 3 messages x 24 bytes in, 12 x 24 out
	run(t, e, b, circuit.Bindings{})
	want := int64(3*8 + 3*24 + 12*8 + 12*24)
	if got := e.Stats().Bytes; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestSharesLookRandom(t *testing.T) {
	// No single party's share should equal the secret systematically.
	// Unit weights make the additive conversion return the raw shares.
	e := newTestEngine(t, 4)
	const secret = 424242
	b := circuit.NewBuilder(4, 0)
	x := b.InputParam(0)
	plan := b.MustCompile()
	ones := []field.Elem{1, 1, 1, 1}
	hits := 0
	for trial := 0; trial < 200; trial++ {
		res, err := plan.Execute(e, circuit.Bindings{Inputs: []int64{secret}})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range e.AdditiveShares(res.ValOf(x), ones) {
			if sh == secret {
				hits++
			}
		}
	}
	if hits > 2 {
		t.Fatalf("shares leak the secret (%d hits)", hits)
	}
}

func TestInputVecOpenVec(t *testing.T) {
	e := newTestEngine(t, 4)
	vs := []int64{5, -6, 0, 1 << 30}
	b := circuit.NewBuilder(4, 0)
	v := b.InputVec(2, vs)
	if v.Len() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
	b.OpenVecIdx(v)
	if got := run(t, e, b, circuit.Bindings{}).OpenedVec(0); !slices.Equal(got, vs) {
		t.Fatalf("OpenVec = %v", got)
	}
}

func TestVecAtMatchesScalar(t *testing.T) {
	e := newTestEngine(t, 3)
	b := circuit.NewBuilder(3, 0)
	b.OpenIdx(b.At(b.InputVec(0, []int64{9, -4}), 1))
	if got := run(t, e, b, circuit.Bindings{}).Opened(0); got != -4 {
		t.Fatalf("At(1) = %d", got)
	}
}

func TestAddSubMulConstVec(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	x := b.InputVec(0, []int64{1, 2, 3})
	y := b.InputVec(1, []int64{10, 20, 30})
	b.OpenVecIdx(b.AddVec(x, y))
	// Element-wise Sub, MulConst and AddConst, packed back into vectors.
	var diff, scaled, shifted []bgw.Val
	for k := 0; k < 3; k++ {
		diff = append(diff, b.Sub(b.At(y, k), b.At(x, k)))
		scaled = append(scaled, b.MulConst(b.At(x, k), -3))
		shifted = append(shifted, b.AddConst(b.At(x, k), 100))
	}
	b.OpenVecIdx(b.FromScalars(diff))
	b.OpenVecIdx(b.FromScalars(scaled))
	b.OpenVecIdx(b.FromScalars(shifted))
	res := run(t, e, b, circuit.Bindings{})
	for i, want := range [][]int64{{11, 22, 33}, {9, 18, 27}, {-3, -6, -9}, {101, 102, 103}} {
		if got := res.OpenedVec(i); !slices.Equal(got, want) {
			t.Errorf("vector output %d = %v, want %v", i, got, want)
		}
	}
}

func TestFromScalars(t *testing.T) {
	e := newTestEngine(t, 3)
	b := circuit.NewBuilder(3, 0)
	b.OpenVecIdx(b.FromScalars([]bgw.Val{b.Input(0, 7), b.Input(1, -2)}))
	if got := run(t, e, b, circuit.Bindings{}).OpenedVec(0); !slices.Equal(got, []int64{7, -2}) {
		t.Fatalf("FromScalars = %v", got)
	}
}

// A small end-to-end circuit: F(x) = Σ_records x1·x2 + noise, the shape
// of SQM's evaluation step.
func TestNoisyAggregateCircuit(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	acc := b.Dot(b.InputVec(0, []int64{1, 2, 3}), b.InputVec(1, []int64{4, 5, 6})) // 32
	// Each party adds its private noise share.
	for p, z := range []int64{3, -1, 2, -2} { // aggregate 2
		acc = b.Add(acc, b.Input(p, z))
	}
	b.OpenIdx(acc)
	if got := run(t, e, b, circuit.Bindings{}).Opened(0); got != 34 {
		t.Fatalf("noisy aggregate = %d, want 34", got)
	}
}

// TestInputElemOpenElemRoundTrip: raw field elements beyond the signed
// embedding range survive input sharing; the kept sharing reconstructs
// to the element itself.
func TestInputElemOpenElemRoundTrip(t *testing.T) {
	e := newTestEngine(t, 4)
	big := field.Elem(field.Modulus - 3)
	b := circuit.NewBuilder(4, 0)
	x := b.InputElem(1, big)
	if got := secretOf(e, run(t, e, b, circuit.Bindings{}).ValOf(x)); got != big {
		t.Fatalf("round trip = %d, want %d", got, big)
	}
}

func TestAdditiveSharesConversion(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	x := b.Input(0, 9876)
	if got := field.ToInt64(secretOf(e, run(t, e, b, circuit.Bindings{}).ValOf(x))); got != 9876 {
		t.Fatalf("additive conversion sums to %d", got)
	}
}

func TestAdditiveSharesWeightMismatchPanics(t *testing.T) {
	e := newTestEngine(t, 4)
	b := circuit.NewBuilder(4, 0)
	x := b.Input(0, 1)
	v := run(t, e, b, circuit.Bindings{}).ValOf(x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.AdditiveShares(v, make([]field.Elem, 2))
}

// TestForeignSharePanics: handles only work on the engine that issued
// them, as an external binding or in the additive conversion.
func TestForeignSharePanics(t *testing.T) {
	e1 := newTestEngine(t, 3)
	e2 := newTestEngine(t, 3)
	foreign := shareCols(t, e2, []int64{1, 2})
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic for a share of another engine", name)
			}
		}()
		f()
	}
	b := circuit.NewBuilder(3, 0)
	b.OpenIdx(b.At(b.ExtVec(2), 0))
	plan := b.MustCompile()
	expectPanic("ExtVec", func() { plan.Execute(e1, circuit.Bindings{ExtVecs: foreign}) })

	kb := circuit.NewBuilder(3, 0)
	x := kb.Input(0, 1)
	v := run(t, e2, kb, circuit.Bindings{}).ValOf(x)
	expectPanic("AdditiveShares", func() { e1.AdditiveShares(v, make([]field.Elem, 3)) })
}

func TestMoreParties(t *testing.T) {
	// 10 parties, threshold 4: deep arithmetic still exact.
	e, err := bgw.NewEngine(bgw.Config{Parties: 10, Threshold: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := circuit.NewBuilder(10, 4)
	x, y := b.Input(3, 1234), b.Input(7, -56)
	b.OpenIdx(b.Mul(b.Mul(b.Add(x, y), y), x)) // (1234-56)·(-56)·1234
	if got := run(t, e, b, circuit.Bindings{}).Opened(0); got != 1178*-56*1234 {
		t.Fatalf("got %d", got)
	}
}

func BenchmarkDot1000(b *testing.B) {
	e := newTestEngine(b, 4)
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = int64(i)
	}
	cols := shareCols(b, e, vs, vs)
	rec := circuit.NewBuilder(4, 0)
	rec.Dot(rec.ExtVec(1000), rec.ExtVec(1000))
	plan := rec.MustCompile()
	bind := circuit.Bindings{ExtVecs: cols}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(e, bind); err != nil {
			b.Fatal(err)
		}
	}
}
