package listsched

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
)

// FuzzListSchedule is the differential between Run and refRun, the list
// scheduler before readiness caching, candidate merging and idle-cycle
// jumps: on a random layered graph, machine, legal assignment and priority
// they must build the same schedule or fail with the same error. Integer
// priorities drawn from a small range make ties, which the ID order breaks;
// optional memory edges make candidates wait on non-value predecessors.
func FuzzListSchedule(f *testing.F) {
	f.Add(uint16(300), uint8(29), int64(1), uint8(1), uint8(0), uint8(0), false)   // vliw4, round-robin, critical path
	f.Add(uint16(600), uint8(54), int64(2), uint8(1), uint8(1), uint8(3), false)   // vliw4, random, 4 priority levels
	f.Add(uint16(250), uint8(8), int64(3), uint8(0), uint8(2), uint8(1), true)     // vliw2, one cluster, 2 levels
	f.Add(uint16(400), uint8(37), int64(4), uint8(2), uint8(0), uint8(7), true)    // raw4, round-robin, mem edges
	f.Add(uint16(500), uint8(45), int64(5), uint8(3), uint8(1), uint8(15), false)  // raw16, random
	f.Add(uint16(120), uint8(3), int64(6), uint8(3), uint8(2), uint8(2), true)     // raw16, one cluster, narrow
	f.Add(uint16(20), uint8(1), int64(7), uint8(2), uint8(1), uint8(0), true)      // smallest, serial
	f.Add(uint16(580), uint8(200), int64(8), uint8(0), uint8(1), uint8(63), false) // vliw2, very wide

	machines := []string{"vliw2", "vliw4", "raw4", "raw16"}
	f.Fuzz(func(t *testing.T, size uint16, width uint8, seed int64, mach, mode, spread uint8, mem bool) {
		m, err := machine.Named(machines[int(mach)%len(machines)])
		if err != nil {
			t.Fatal(err)
		}
		n := 20 + int(size)%581
		g := bench.RandomLayered(n, 1+int(width), m.NumClusters, seed)
		rng := rand.New(rand.NewSource(seed))
		if mem {
			for k := 0; k < g.Len()/4; k++ {
				a, b := rng.Intn(g.Len()), rng.Intn(g.Len())
				if a != b {
					g.AddMemEdge(min(a, b), max(a, b))
				}
			}
		}
		assign := make([]int, g.Len())
		for i := range assign {
			cs := legalClusters(g, m, i)
			switch mode % 3 {
			case 0:
				assign[i] = cs[i%len(cs)]
			case 1:
				assign[i] = cs[rng.Intn(len(cs))]
			default:
				assign[i] = cs[0]
			}
		}
		var prio []float64
		if spread > 0 {
			prio = make([]float64, g.Len())
			for i := range prio {
				prio[i] = float64(rng.Intn(1 + int(spread)%64))
			}
		}
		opt := Options{Assignment: assign, Priority: prio}

		got, err := Run(g, m, opt)
		want, wantErr := refRun(g, m, opt)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if a, b := got.Fingerprint(), want.Fingerprint(); a != b {
			t.Fatalf("%d instructions on %s: schedule %s, reference %s", g.Len(), m.Name, a, b)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("illegal schedule: %v", err)
		}
	})
}
