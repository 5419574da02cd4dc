package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/passes"
)

// Example demonstrates the whole convergent flow on a toy graph: two
// independent multiply chains feeding a preplaced store. The preferences
// converge so that the store's neighbourhood lands on its home tile.
func Example() {
	g := ir.New("demo")
	a := g.AddConst(3)
	b := g.AddConst(4)
	x := g.Add(ir.Mul, a.ID, a.ID)
	y := g.Add(ir.Mul, b.ID, b.ID)
	sum := g.Add(ir.Add, x.ID, y.ID)
	addr := g.AddConst(0)
	st := g.AddStore(1, addr.ID, sum.ID)
	st.Home = 1 // the result belongs in bank 1, on tile 1

	m := machine.Raw(2)
	sched, res, err := core.Schedule(g, m, passes.RawSequence(), 2002)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("store on tile %d (home %d)\n", sched.Placements[st.ID].Cluster, st.Home)
	fmt.Printf("adder on tile %d\n", res.Assignment[sum.ID])
	fmt.Printf("schedule validates: %v\n", sched.Validate() == nil)
	// Output:
	// store on tile 1 (home 1)
	// adder on tile 1
	// schedule validates: true
}

// ExamplePrefMap shows the weight-matrix primitives a pass is built from.
func ExamplePrefMap() {
	w := core.NewPrefMap(1, 2, 2) // one instruction, 2 slots, 2 clusters
	w.MulCluster(0, 1, 3)         // triple cluster 1's weights
	w.Normalize(0)
	fmt.Printf("preferred cluster: %d\n", w.PreferredCluster(0))
	fmt.Printf("confidence: %.1f\n", w.Confidence(0))
	// Output:
	// preferred cluster: 1
	// confidence: 3.0
}

// ExamplePassFunc writes a one-off heuristic inline: bias everything toward
// cluster 0, exactly like the paper's FIRST pass.
func ExamplePassFunc() {
	first := core.PassFunc{Label: "MYFIRST", Fn: func(s *core.State) {
		for i := 0; i < s.W.N(); i++ {
			s.W.MulCluster(i, 0, 1.2)
		}
	}}
	g := ir.New("tiny")
	g.AddConst(7)
	tr := obs.NewTrace(g.Name, "raw4")
	_, res, err := core.ScheduleCtx(obs.WithTrace(context.Background(), tr), g, machine.Raw(4), []core.Pass{first}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s moved %d instruction(s)\n", first.Name(), tr.Passes[0].Changed)
	fmt.Printf("assignment: %v\n", res.Assignment)
	// Output:
	// MYFIRST moved 0 instruction(s)
	// assignment: [0]
}
