package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// forceCluster is a test pass that slams every instruction onto one cluster.
type forceCluster struct{ cluster int }

func (f forceCluster) Name() string { return "FORCE" }

func (f forceCluster) Run(s *State) {
	for i := 0; i < s.W.N(); i++ {
		s.W.MulCluster(i, f.cluster, 1000)
	}
}

func smallGraph() *ir.Graph {
	g := ir.New("small")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	g.Add(ir.Not, b.ID)
	return g
}

func TestNewStateShapes(t *testing.T) {
	g := smallGraph()
	m := machine.Raw(4)
	s := NewState(g, m, 1)
	if s.CPL != 3 {
		t.Errorf("CPL = %d, want 3", s.CPL)
	}
	if s.W.N() != 3 || s.W.Times() != 3 || s.W.Clusters() != 4 {
		t.Errorf("map shape = (%d,%d,%d)", s.W.N(), s.W.Times(), s.W.Clusters())
	}
	if s.EarliestStart[2] != 2 || s.LatestStart[0] != 0 {
		t.Errorf("ES=%v LS=%v", s.EarliestStart, s.LatestStart)
	}
}

func TestNewStateEmptyGraph(t *testing.T) {
	g := ir.New("empty")
	s := NewState(g, machine.Raw(2), 1)
	if s.CPL != 1 {
		t.Errorf("empty CPL = %d, want 1 (floor)", s.CPL)
	}
}

func TestLoadsSumToInstructionCount(t *testing.T) {
	g := smallGraph()
	s := NewState(g, machine.Raw(4), 1)
	total := 0.0
	for _, l := range s.LoadsInto(make([]float64, 4)) {
		total += l
	}
	if diff := total - 3; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Loads sum = %v, want 3", total)
	}
}

func TestConvergeTraceAndInvariants(t *testing.T) {
	g := smallGraph()
	m := machine.Raw(2)
	tr := obs.NewTrace(g.Name, m.Name)
	ctx := obs.WithTrace(context.Background(), tr)
	res := converge(ctx, NewState(g, m, 7), []Pass{forceCluster{1}, forceCluster{0}})
	if len(tr.Passes) != 2 {
		t.Fatalf("Trace has %d entries", len(tr.Passes))
	}
	// First pass moves everything from default cluster 0 to 1.
	if d := tr.Passes[0]; d.Pass != "FORCE" || d.Changed != 3 || d.Fraction != 1.0 {
		t.Errorf("Trace[0] = %+v", d)
	}
	// Second pass moves it back (1000x vs the first pass's bias is not
	// enough to flip alone — it multiplies on top, so cluster 0 ends up
	// 1000/1000; equal marginals tie-break low = cluster 0).
	for _, a := range res.Assignment {
		if a != 0 {
			t.Errorf("Assignment = %v", res.Assignment)
			break
		}
	}
}

func TestConvergeHonoursPreplacementUnconditionally(t *testing.T) {
	g := ir.New("pp")
	a := g.AddConst(1)
	a.Home = 1
	g.Add(ir.Neg, a.ID)
	m := machine.Raw(2)
	// A hostile pass pushes everything to cluster 0; the driver must
	// still pin the preplaced instruction to its home.
	res := converge(context.Background(), NewState(g, m, 1), []Pass{forceCluster{0}})
	if res.Assignment[a.ID] != 1 {
		t.Errorf("preplaced instruction assigned to %d", res.Assignment[a.ID])
	}
}

func TestConvergeDeterministicForSeed(t *testing.T) {
	g := smallGraph()
	m := machine.Raw(4)
	noise := PassFunc{Label: "NOISE", Fn: func(s *State) {
		for i := 0; i < s.W.N(); i++ {
			s.W.Apply(i, func(t, c int, w float64) float64 {
				return w + s.Rand.Float64()/float64(s.W.Times()*s.W.Clusters())
			})
		}
	}}
	a := converge(context.Background(), NewState(g, m, 42), []Pass{noise})
	b := converge(context.Background(), NewState(g, m, 42), []Pass{noise})
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("same seed diverged: %v vs %v", a.Assignment, b.Assignment)
		}
	}
}

func TestScheduleEndToEnd(t *testing.T) {
	g := smallGraph()
	m := machine.Raw(2)
	sched, res, err := Schedule(g, m, []Pass{forceCluster{1}}, 1)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, c := range sched.Assignment() {
		if c != res.Assignment[i] {
			t.Errorf("schedule cluster %d != converged %d", c, res.Assignment[i])
		}
	}
}

func TestRenderSpaceShape(t *testing.T) {
	p := NewPrefMap(2, 1, 3)
	p.Set(0, 0, 0, 1)
	p.Set(0, 0, 1, 0)
	p.Set(0, 0, 2, 0)
	out := RenderSpace(p)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("RenderSpace rows = %d, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "@") {
		t.Errorf("confident row lacks strong glyph: %q", lines[0])
	}
}

func TestPassFuncAdapter(t *testing.T) {
	ran := false
	p := PassFunc{Label: "X", Fn: func(*State) { ran = true }}
	if p.Name() != "X" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Run(nil)
	if !ran {
		t.Error("Run did not invoke Fn")
	}
}
