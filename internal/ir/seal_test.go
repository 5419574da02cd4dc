package ir_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
)

func checkSeal(t *testing.T, label string, g *ir.Graph) {
	t.Helper()
	want := irtest.RefSeal(g)
	if d := irtest.Diff(irtest.Sealed(g), want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestSealMatchesReferenceOnKernelsAndRandomDAGs: the generation-stamped
// Seal lists every predecessor, successor and neighbour in exactly the
// order the map-based reference does, for every kernel at every cluster
// count the suites use and for Fig. 10's random DAGs.
func TestSealMatchesReferenceOnKernelsAndRandomDAGs(t *testing.T) {
	for _, k := range bench.All() {
		for _, c := range []int{2, 4, 16} {
			checkSeal(t, k.Name, k.Build(c))
		}
	}
	for _, n := range []int{100, 250, 500, 1000, 2000} {
		checkSeal(t, "random", bench.RandomLayered(n, n/12+4, 4, int64(n)))
	}
}

// TestSealMatchesReferenceOnHandGraphs covers the duplicate shapes the
// kernels rarely produce: a repeated operand, a memory edge that repeats a
// data edge, repeated memory edges, and memory edges listed out of target
// and source order, interleaved with fresh ones.
func TestSealMatchesReferenceOnHandGraphs(t *testing.T) {
	g := ir.New("dups")
	a := g.AddConst(1)
	sq := g.Add(ir.Add, a.ID, a.ID) // add %0 %0
	st := g.AddStore(0, a.ID, sq.ID)
	ld := g.AddLoad(0, a.ID)
	st2 := g.AddStore(0, ld.ID, ld.ID)
	ld2 := g.AddLoad(0, st2.ID-1)
	g.AddMemEdge(st.ID, ld.ID)
	g.AddMemEdge(ld.ID, st2.ID) // repeats the data edge ld -> st2
	g.AddMemEdge(st.ID, ld.ID)  // repeats the first memory edge
	g.AddMemEdge(st.ID, st2.ID)
	g.AddMemEdge(st.ID, ld2.ID)
	g.AddMemEdge(ld.ID, ld2.ID) // repeats the data edge ld -> ld2
	g.AddMemEdge(st.ID, st2.ID)
	g.Instrs[ld.ID].Home = 0
	checkSeal(t, "dups", g)

	// Random graphs whose memory edges are drawn with heavy repetition and
	// in shuffled order, over operands that repeat.
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		g := ir.New("shuffled")
		g.AddConst(0)
		var mem []int
		for i := 1; i < 12+rng.Intn(40); i++ {
			x, y := rng.Intn(i), rng.Intn(i)
			if !g.Instrs[x].Op.HasResult() {
				x = 0
			}
			if !g.Instrs[y].Op.HasResult() {
				y = x
			}
			switch rng.Intn(4) {
			case 0:
				mem = append(mem, g.AddStore(rng.Intn(2), x, y).ID)
			case 1:
				mem = append(mem, g.AddLoad(rng.Intn(2), x).ID)
			default:
				in := g.Add(ir.Add, x, y)
				if rng.Intn(5) == 0 {
					in.Home = rng.Intn(4)
				}
			}
		}
		for e := 0; len(mem) > 1 && e < rng.Intn(30); e++ {
			from, to := mem[rng.Intn(len(mem))], mem[rng.Intn(len(mem))]
			if from > to {
				from, to = to, from
			}
			if from != to {
				g.AddMemEdge(from, to)
			}
		}
		checkSeal(t, "shuffled", g)
	}
}
