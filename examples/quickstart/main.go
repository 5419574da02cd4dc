// Quickstart: build a small dependence graph by hand, run the convergent
// scheduler on a 4-tile Raw machine, inspect how each pass moved the
// preferences, and verify the resulting schedule by simulation.
//
// The graph is in the spirit of the paper's Figure 1: a few long multiply
// chains plus a reduction, where the scheduler must trade locality (keep
// chains together) against parallelism (spread chains over tiles).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/sim"
)

func main() {
	// sum_{c=0..3} (c+1)^8, each power chain independent, then a
	// reduction tree: parallelism across chains, locality within them.
	g := ir.New("quickstart")
	var chains []int
	for c := 0; c < 4; c++ {
		v := g.AddConst(int64(c + 1)).ID
		cur := v
		for k := 0; k < 7; k++ {
			cur = g.Add(ir.Mul, cur, v).ID
		}
		chains = append(chains, cur)
	}
	s01 := g.Add(ir.Add, chains[0], chains[1])
	s23 := g.Add(ir.Add, chains[2], chains[3])
	total := g.Add(ir.Add, s01.ID, s23.ID)
	addr := g.AddConst(0)
	st := g.AddStore(0, addr.ID, total.ID)
	st.Home = 0 // the result must land in tile 0's memory bank

	m := machine.Raw(4)
	fmt.Printf("graph: %s\n", g.ComputeStats())

	// Converge the preferences with the published Raw pass sequence; the
	// trace records what each pass did to the preference map.
	tr := obs.NewTrace(g.Name, m.Name)
	sched, _, err := core.ScheduleCtx(obs.WithTrace(context.Background(), tr), g, m, passes.RawSequence(), 2002)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npass trace (fraction of instructions whose preferred tile changed):")
	for _, d := range tr.Passes {
		fmt.Printf("  %-10s %5.1f%%\n", d.Pass, 100*d.Fraction)
	}

	fmt.Printf("\nschedule: %d cycles, %d communications\n", sched.Length(), sched.CommCount())
	fmt.Println(sched)

	// Execute the schedule and check it against sequential reference
	// execution — and against plain arithmetic.
	result, err := sim.Verify(sched, sim.NewMemory())
	if err != nil {
		log.Fatal(err)
	}
	got := result.Memory.Load(0, 0).AsInt()
	want := int64(0)
	for c := int64(1); c <= 4; c++ {
		p := int64(1)
		for k := 0; k < 8; k++ {
			p *= c
		}
		want += p
	}
	fmt.Printf("computed %d, expected %d\n", got, want)
	if got != want {
		log.Fatal("wrong answer")
	}
	fmt.Println("verified: schedule reproduces sequential semantics")
}
