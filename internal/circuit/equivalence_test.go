package circuit

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sqm/internal/bgw"
	"sqm/internal/transport"
)

// randomCircuit records a random DAG into b: literal inputs, the full
// linear gate surface, scalar and fused multiplications, and a few
// opened outputs. The shape is fully determined by rng, so the same
// seed rebuilds the same circuit for every backend.
func randomCircuit(b *Builder, rng *rand.Rand) {
	const p = 4
	vals := []bgw.Val{b.Zero()}
	var vecs []bgw.Vec
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		vals = append(vals, b.Input(rng.Intn(p), int64(rng.Intn(2001)-1000)))
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		vs := make([]int64, 2+rng.Intn(3))
		for k := range vs {
			vs[k] = int64(rng.Intn(201) - 100)
		}
		vecs = append(vecs, b.InputVec(rng.Intn(p), vs))
	}
	pick := func() bgw.Val { return vals[rng.Intn(len(vals))] }
	pickVecs := func() (bgw.Vec, bgw.Vec) {
		v1 := vecs[rng.Intn(len(vecs))]
		var cands []bgw.Vec
		for _, v2 := range vecs {
			if v2.Len() == v1.Len() {
				cands = append(cands, v2)
			}
		}
		return v1, cands[rng.Intn(len(cands))]
	}
	for i, ops := 0, 5+rng.Intn(20); i < ops; i++ {
		switch rng.Intn(10) {
		case 0:
			vals = append(vals, b.Add(pick(), pick()))
		case 1:
			vals = append(vals, b.Sub(pick(), pick()))
		case 2:
			vals = append(vals, b.AddConst(pick(), int64(rng.Intn(101)-50)))
		case 3:
			vals = append(vals, b.MulConst(pick(), int64(rng.Intn(21)-10)))
		case 4:
			vals = append(vals, b.Mul(pick(), pick()))
		case 5:
			as := make([]bgw.Val, 1+rng.Intn(3))
			bs := make([]bgw.Val, len(as))
			for k := range as {
				as[k], bs[k] = pick(), pick()
			}
			vals = append(vals, b.InnerProduct(as, bs))
		case 6:
			v := vecs[rng.Intn(len(vecs))]
			vals = append(vals, b.At(v, rng.Intn(v.Len())))
		case 7:
			v1, v2 := pickVecs()
			vecs = append(vecs, b.AddVec(v1, v2))
		case 8:
			v1, v2 := pickVecs()
			vals = append(vals, b.Dot(v1, v2))
		case 9:
			xs := make([]bgw.Val, 1+rng.Intn(3))
			for k := range xs {
				xs[k] = pick()
			}
			vecs = append(vecs, b.FromScalars(xs))
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		b.OpenIdx(pick())
	}
	b.OpenVecIdx(vecs[rng.Intn(len(vecs))])
}

// checkEquivalence compiles the seed's random circuit and demands
// bit-identical opened outputs from every execution strategy: the
// plain interpreter (the oracle) and the planned executor on the
// monolithic and actor engines. Measured rounds must equal the plan's
// predictions.
func checkEquivalence(t *testing.T, seed int64) {
	t.Helper()
	b := NewBuilder(4, 0)
	randomCircuit(b, rand.New(rand.NewSource(seed)))
	plan := b.MustCompile()

	want, err := plan.Plain(Bindings{})
	if err != nil {
		t.Fatalf("seed %d: plain: %v", seed, err)
	}

	check := func(name string, res *Result, rounds int64, wantRounds int) {
		if len(res.opened) != len(want.opened) {
			t.Fatalf("seed %d: %s opened %d values, plain %d", seed, name, len(res.opened), len(want.opened))
		}
		for i := range want.opened {
			if res.opened[i] != want.opened[i] {
				t.Errorf("seed %d: %s output %d = %d, plain %d", seed, name, i, res.opened[i], want.opened[i])
			}
		}
		for i := range want.openedVecs {
			for k := range want.openedVecs[i] {
				if res.openedVecs[i][k] != want.openedVecs[i][k] {
					t.Errorf("seed %d: %s vec %d[%d] = %d, plain %d", seed, name, i, k, res.openedVecs[i][k], want.openedVecs[i][k])
				}
			}
		}
		if rounds != int64(wantRounds) {
			t.Errorf("seed %d: %s rounds = %d, want %d", seed, name, rounds, wantRounds)
		}
	}

	// Worker-pool sweep: the parallel level executor must be invisible
	// in everything but wall-clock — bit-identical outputs and unchanged
	// round/frame counts for every pool size, with workers=1 (the serial
	// executor) as the baseline.
	sweep := []int{1, 2, runtime.NumCPU()}

	var monoFrames int64
	for wi, w := range sweep {
		name := fmt.Sprintf("mono-planned-w%d", w)
		mono, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: uint64(seed) ^ 0x9e37, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		mres, err := plan.Execute(mono, Bindings{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, name, err)
		}
		check(name, mres, mono.Stats().Rounds, plan.Rounds())
		if wi == 0 {
			monoFrames = mono.Stats().Frames
		} else if f := mono.Stats().Frames; f != monoFrames {
			t.Errorf("seed %d: %s frames = %d, serial executor sent %d", seed, name, f, monoFrames)
		}
	}

	var actorFrames int64
	for wi, w := range sweep {
		name := fmt.Sprintf("actor-planned-w%d", w)
		ares, rounds, frames := func() (*Result, int64, int64) {
			actor, err := bgw.NewActorEngine(bgw.Config{Parties: 4, Seed: uint64(seed) ^ 0x51f1, Workers: w}, transport.NewChanMesh(4))
			if err != nil {
				t.Fatal(err)
			}
			defer actor.Close()
			res, err := plan.Execute(actor, Bindings{})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if err := actor.Err(); err != nil {
				t.Fatalf("seed %d: %s engine: %v", seed, name, err)
			}
			s := actor.Stats()
			return res, s.Rounds, s.Frames
		}()
		check(name, ares, rounds, plan.Rounds())
		if wi == 0 {
			actorFrames = frames
		} else if frames != actorFrames {
			t.Errorf("seed %d: %s frames = %d, serial executor sent %d", seed, name, frames, actorFrames)
		}
	}

}

// TestPlanEquivalenceRandomCircuits is the differential test: many
// random DAGs, three execution strategies, all bit-identical.
func TestPlanEquivalenceRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		checkEquivalence(t, seed)
	}
}

// FuzzPlanEquivalence lets the fuzzer hunt for circuit shapes where
// the scheduler, the batched executor on either engine, and the plain
// interpreter disagree.
func FuzzPlanEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalence(t, seed)
	})
}
