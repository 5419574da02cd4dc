package faultinject_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// memGraph builds a small graph with memory-order edges and cross-bank
// traffic. The bench kernels never alias two accesses to one location, so
// they carry no explicit memory edges; this graph supplies the memory-order
// corruption classes with something to corrupt.
func memGraph() *ir.Graph {
	g := ir.New("memprop")
	a0 := g.AddConst(0)
	a8 := g.AddConst(8)
	a16 := g.AddConst(16)
	c7 := g.AddConst(7)
	c5 := g.AddConst(5)
	st0 := g.AddStore(0, a0.ID, c7.ID)
	ld0 := g.AddLoad(0, a0.ID)
	g.AddMemEdge(st0.ID, ld0.ID)
	sum := g.Add(ir.Add, ld0.ID, c5.ID)
	st1 := g.AddStore(1, a8.ID, sum.ID)
	ld1 := g.AddLoad(1, a8.ID)
	g.AddMemEdge(st1.ID, ld1.ID)
	prod := g.Add(ir.Mul, ld1.ID, c7.ID)
	st2 := g.AddStore(2, a16.ID, prod.ID)
	ld2 := g.AddLoad(2, a16.ID)
	g.AddMemEdge(st2.ID, ld2.ID)
	fin := g.Add(ir.Sub, ld2.ID, c5.ID)
	g.AddStore(3, a0.ID, fin.ID)
	return g
}

// propGraphs returns the graphs the property tests mutate over: two random
// layered DAGs (with preplaced instructions, hence communications on
// multi-cluster machines) and the memory-edge graph.
func propGraphs(clusters int) []*ir.Graph {
	return []*ir.Graph{
		bench.RandomLayered(80, 8, clusters, 1),
		bench.RandomLayered(150, 12, clusters, 2),
		memGraph(),
	}
}

// base produces a known-valid schedule to mutate: the trivial-assignment
// list schedule, which honours preplacement and bank homes on any machine.
func base(t *testing.T, g *ir.Graph, m *machine.Model) *schedule.Schedule {
	t.Helper()
	s, err := robust.ListRung(m).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("list schedule for %s on %s: %v", g.Name, m.Name, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("base schedule for %s on %s invalid: %v", g.Name, m.Name, err)
	}
	return s
}

// TestScheduleMutantsAllRejected is the no-false-accepts property: every
// applicable schedule corruption, over every graph, machine, and seed, must
// be rejected by the legality gate — schedule.Validate first, simulation
// against reference execution as the backstop. It also proves every class
// applies somewhere (a class that never fires would make the property
// vacuous) and that mutators never modify their input.
func TestScheduleMutantsAllRejected(t *testing.T) {
	machines := []*machine.Model{machine.Raw(4), machine.Chorus(4)}
	applied := map[string]int{}
	for _, m := range machines {
		for _, g := range propGraphs(m.NumClusters) {
			s := base(t, g, m)
			before := struct {
				p []schedule.Placement
				c []schedule.Comm
			}{
				append([]schedule.Placement(nil), s.Placements...),
				append([]schedule.Comm(nil), s.Comms...),
			}
			for _, class := range faultinject.ScheduleClasses() {
				for seed := int64(0); seed < 6; seed++ {
					mut, desc, ok := faultinject.MutateSchedule(s, class, seed)
					if !ok {
						continue
					}
					applied[class]++
					if desc == "" {
						t.Errorf("%s: empty fault description", class)
					}
					if err := mut.Validate(); err == nil {
						// Validate missed it; the gate's second line
						// must catch it or this is a false accept.
						if _, simErr := sim.Verify(mut, sim.NewMemory()); simErr == nil {
							t.Errorf("%s on %s/%s seed %d: FALSE ACCEPT of %q",
								class, g.Name, m.Name, seed, desc)
						}
					}
				}
			}
			if !reflect.DeepEqual(before.p, s.Placements) || !reflect.DeepEqual(before.c, s.Comms) {
				t.Errorf("mutators modified their input schedule for %s on %s", g.Name, m.Name)
			}
		}
	}
	for _, class := range faultinject.ScheduleClasses() {
		if applied[class] == 0 {
			t.Errorf("class %s never applied to any test schedule", class)
		}
	}
}

// TestMutatorsDeterministic replays every class with a fixed seed and
// demands bit-identical mutants, so any failure the chaos suite finds can
// be replayed exactly.
func TestMutatorsDeterministic(t *testing.T) {
	m := machine.Chorus(4)
	for _, g := range propGraphs(4) {
		s := base(t, g, m)
		for _, class := range faultinject.ScheduleClasses() {
			m1, d1, ok1 := faultinject.MutateSchedule(s, class, 42)
			m2, d2, ok2 := faultinject.MutateSchedule(s, class, 42)
			if ok1 != ok2 || d1 != d2 {
				t.Fatalf("%s on %s: nondeterministic (ok %v/%v, desc %q vs %q)", class, g.Name, ok1, ok2, d1, d2)
			}
			if !ok1 {
				continue
			}
			if !reflect.DeepEqual(m1.Placements, m2.Placements) || !reflect.DeepEqual(m1.Comms, m2.Comms) {
				t.Errorf("%s on %s: same seed produced different mutants", class, g.Name)
			}
		}
	}
}

func TestDropMemEdge(t *testing.T) {
	g := memGraph()
	out, ok := faultinject.DropMemEdge(g, 9)
	if !ok {
		t.Fatal("DropMemEdge inapplicable to a graph with memory edges")
	}
	if got, want := len(out.MemEdges()), len(g.MemEdges())-1; got != want {
		t.Errorf("mutated graph has %d memory edges, want %d", got, want)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("mutated graph must stay structurally valid: %v", err)
	}
	if len(g.MemEdges()) != 3 {
		t.Errorf("input graph modified: %d memory edges", len(g.MemEdges()))
	}
	if _, ok := faultinject.DropMemEdge(bench.RandomLayered(50, 5, 4, 1), 0); ok {
		t.Error("DropMemEdge applied to a graph with no memory edges")
	}
}

func TestRewireArg(t *testing.T) {
	g := bench.RandomLayered(60, 6, 4, 5)
	out, ok := faultinject.RewireArg(g, 11)
	if !ok {
		t.Fatal("RewireArg inapplicable to a random DAG")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("rewired graph must stay structurally valid: %v", err)
	}
	if out.Len() != g.Len() {
		t.Fatalf("rewired graph has %d instrs, want %d", out.Len(), g.Len())
	}
	changed := 0
	for i, in := range g.Instrs {
		if !reflect.DeepEqual(in.Args, out.Instrs[i].Args) {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("rewiring changed %d instructions' operands, want exactly 1", changed)
	}

	// No operand has an alternative producer here, so rewiring must refuse.
	tiny := ir.New("tiny")
	c := tiny.AddConst(1)
	tiny.Add(ir.Add, c.ID, c.ID)
	if _, ok := faultinject.RewireArg(tiny, 0); ok {
		t.Error("RewireArg applied where no alternative producer exists")
	}
}

func TestChaosUnknownClass(t *testing.T) {
	if _, _, err := (faultinject.Chaos{Class: "no-such-fault"}).Ladder(machine.Chorus(4), 1); err == nil {
		t.Error("unknown chaos class accepted")
	}
}

// TestChaosLadderID pins the chaos cache identity: the class and both
// seeds, so a chaos-mode store never serves another fault's schedules.
func TestChaosLadderID(t *testing.T) {
	_, id, err := faultinject.Chaos{Class: faultinject.ChaosPassPanic, Seed: 7}.Ladder(machine.Chorus(4), 2002)
	if err != nil {
		t.Fatal(err)
	}
	if want := "chaos:pass-panic:7:seed=2002"; id != want {
		t.Errorf("chaos ladder ID %q, want %q", id, want)
	}
}
