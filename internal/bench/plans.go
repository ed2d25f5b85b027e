package bench

import (
	"fmt"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/transport"
)

// Plans measures the level scheduler on the lr3 cube circuit: for each
// batch size B it compiles the degree-4 gradient circuit (square, cube,
// fused inner product — multiplicative depth 3) and executes it over
// the actor engine, each level one batched reshare exchange. Eager
// gate-by-gate execution (one round per gate) is reported from the
// plan's closed forms, EagerRounds and EagerFrames. The table shows why
// planned wire rounds equal depth + 2 for every B while eager rounds
// grow linearly, with the measured frame counters alongside; the last
// column asserts the opened outputs match the plain interpreter bit for
// bit.
func Plans(o Options) *Table {
	o = o.Defaults()
	const parties, d = 4, 3
	batches := []int{2, 4, 8, 16}
	if o.Full {
		batches = append(batches, 32, 64)
	}

	tbl := &Table{
		ID:    "plans",
		Title: "level-scheduled plans vs eager execution (lr3 cube circuit, actor engine)",
		Header: []string{
			"B", "depth", "gates", "mul gates",
			"planned rounds", "planned frames",
			"eager rounds", "eager frames",
			"outputs match",
		},
		Notes: []string{
			"planned rounds = multiplicative depth + input round + output round, independent of B",
			"frames are physical sends; one batched level reshares in P(P-1) frames regardless of gate count",
			"eager columns are closed forms: one round and one P(P-1) exchange per mul gate and per output",
		},
	}

	for _, B := range batches {
		plan := cubePlan(parties, d, B, int64(o.Seed))
		pRounds, pFrames, pOut, err := runPlan(plan, parties, o.Seed^uint64(B))
		if err != nil {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("B=%d planned: %v", B, err))
			continue
		}
		want, err := plan.Plain(circuit.Bindings{})
		if err != nil {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("B=%d plain: %v", B, err))
			continue
		}
		match := true
		for i := range pOut {
			match = match && pOut[i] == want.Opened(i)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(B),
			fmt.Sprint(plan.Depth()),
			fmt.Sprint(plan.Gates()),
			fmt.Sprint(plan.MulGates()),
			fmt.Sprint(pRounds), fmt.Sprint(pFrames),
			fmt.Sprint(plan.EagerRounds()), fmt.Sprint(plan.EagerFrames()),
			fmt.Sprint(match),
		})
	}
	return tbl
}

// cubePlan builds the lr3-shaped gradient circuit for B records of d
// features: per record a local linear fold, a cube via two chained
// multiplications, then one fused inner product per coordinate.
func cubePlan(parties, d, B int, seed int64) *circuit.Plan {
	b := circuit.NewBuilder(parties, 0)
	val := func(i int) int64 { return (seed+int64(i))%19 - 9 }
	feats := make([][]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		feats[bi] = make([]bgw.Val, d)
		for j := 0; j < d; j++ {
			feats[bi][j] = b.Input((bi+j)%parties, val(bi*d+j))
		}
	}
	us := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		lin := b.Zero()
		c := b.Zero()
		for j := 0; j < d; j++ {
			lin = b.Add(lin, b.MulConst(feats[bi][j], val(j)+11))
			c = b.Add(c, b.MulConst(feats[bi][j], val(j+d)))
		}
		cube := b.Mul(b.Mul(c, c), c)
		us[bi] = b.Sub(b.AddConst(lin, 7), cube)
	}
	xs := make([]bgw.Val, B)
	for t := 0; t < d; t++ {
		for bi := 0; bi < B; bi++ {
			xs[bi] = feats[bi][t]
		}
		b.OpenIdx(b.InnerProduct(xs, us))
	}
	return b.MustCompile()
}

// runPlan executes the plan on a fresh actor engine over a channel mesh
// and returns the measured wire rounds, frames and opened outputs.
func runPlan(plan *circuit.Plan, parties int, seed uint64) (rounds, frames int64, outs []int64, err error) {
	eng, err := bgw.NewActorEngine(bgw.Config{Parties: parties, Seed: seed}, transport.NewChanMesh(parties))
	if err != nil {
		return 0, 0, nil, err
	}
	defer eng.Close()
	res, err := plan.Execute(eng, circuit.Bindings{})
	if err != nil {
		return 0, 0, nil, err
	}
	if err := eng.Err(); err != nil {
		return 0, 0, nil, err
	}
	outs = make([]int64, plan.Opens())
	for i := range outs {
		outs[i] = res.Opened(i)
	}
	st := eng.Stats()
	return st.Rounds, st.Frames, outs, nil
}
