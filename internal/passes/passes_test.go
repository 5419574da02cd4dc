package passes

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
)

// randomGraph builds a layered random DAG with n instructions; roughly one
// in pp instructions is preplaced (pp <= 0 disables preplacement).
func randomGraph(rng *rand.Rand, n, clusters, pp int) *ir.Graph {
	g := ir.New("random")
	for i := 0; i < n; i++ {
		var in *ir.Instr
		switch {
		case i < 2 || rng.Intn(5) == 0:
			in = g.AddConst(int64(i))
		case rng.Intn(3) == 0:
			in = g.Add(ir.Neg, rng.Intn(i))
		default:
			in = g.Add(ir.Add, rng.Intn(i), rng.Intn(i))
		}
		if pp > 0 && rng.Intn(pp) == 0 {
			in.Home = rng.Intn(clusters)
		}
	}
	return g
}

func newRawState(t *testing.T, g *ir.Graph) *core.State {
	t.Helper()
	return core.NewState(g, machine.Raw(4), 1)
}

func TestInitTimeSquashesInfeasibleSlots(t *testing.T) {
	g := ir.New("chain")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	c := g.Add(ir.Neg, b.ID)
	s := newRawState(t, g)
	InitTime{}.Run(s)
	s.W.NormalizeAll()
	// Chain of three unit-latency ops: each has exactly one feasible slot.
	for i, want := range []int{0, 1, 2} {
		if got := s.W.PreferredTime(i); got != want {
			t.Errorf("PreferredTime(%d) = %d, want %d", i, got, want)
		}
		for tt := 0; tt < s.W.Times(); tt++ {
			w := s.W.TimeWeight(i, tt)
			if tt != want && w != 0 {
				t.Errorf("instr %d has weight %v at infeasible slot %d", i, w, tt)
			}
		}
	}
	_ = c
}

func TestNoisePreservesZeroSlots(t *testing.T) {
	g := ir.New("chain")
	a := g.AddConst(1)
	g.Add(ir.Neg, a.ID)
	s := newRawState(t, g)
	InitTime{}.Run(s)
	s.W.NormalizeAll()
	Noise{}.Run(s)
	s.W.NormalizeAll()
	// Slot 1 is infeasible for instruction 0; noise must not resurrect it.
	if w := s.W.TimeWeight(0, 1); w != 0 {
		t.Errorf("noise resurrected infeasible slot: %v", w)
	}
}

func TestNoiseBreaksSymmetry(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 20, 4, 0)
	s := newRawState(t, g)
	Noise{}.Run(s)
	s.W.NormalizeAll()
	diff := false
	for i := 0; i < s.W.N() && !diff; i++ {
		for c := 1; c < 4; c++ {
			if s.W.ClusterWeight(i, c) != s.W.ClusterWeight(i, 0) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("noise left the map perfectly symmetric")
	}
}

func TestPlaceBoostsHome(t *testing.T) {
	g := ir.New("pp")
	a := g.AddConst(1)
	a.Home = 3
	s := newRawState(t, g)
	Place{}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredCluster(0); got != 3 {
		t.Errorf("PreferredCluster = %d, want 3", got)
	}
	if conf := s.W.Confidence(0); conf < 50 {
		t.Errorf("preplaced confidence = %v, want strong", conf)
	}
}

func TestFirstBiasesClusterZero(t *testing.T) {
	g := ir.New("one")
	g.AddConst(1)
	s := core.NewState(g, machine.Chorus(4), 1)
	First{}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredCluster(0); got != 0 {
		t.Errorf("PreferredCluster = %d, want 0", got)
	}
	if s.W.ClusterWeight(0, 0) <= s.W.ClusterWeight(0, 1) {
		t.Error("FIRST did not bias cluster 0")
	}
}

func TestPathKeepsCriticalPathTogether(t *testing.T) {
	g := ir.New("cp")
	a := g.AddConst(1)
	b := g.Add(ir.Mul, a.ID, a.ID) // long
	c := g.Add(ir.Mul, b.ID, b.ID)
	d := g.Add(ir.Neg, c.ID)
	s := newRawState(t, g)
	Path{}.Run(s)
	s.W.NormalizeAll()
	want := s.W.PreferredCluster(a.ID)
	for _, i := range []int{b.ID, c.ID, d.ID} {
		if got := s.W.PreferredCluster(i); got != want {
			t.Errorf("critical path split: instr %d on %d, want %d", i, got, want)
		}
	}
}

func TestPathFollowsPreplacedBias(t *testing.T) {
	g := ir.New("cpp")
	a := g.AddConst(0)
	ld := g.AddLoad(2, a.ID)
	ld.Home = 2
	g.Add(ir.Neg, ld.ID)
	s := newRawState(t, g)
	Path{}.Run(s)
	s.W.NormalizeAll()
	for i := 0; i < 3; i++ {
		if got := s.W.PreferredCluster(i); got != 2 {
			t.Errorf("instr %d preferred %d, want home 2", i, got)
		}
	}
}

func TestPathSplitsAtConflictingHomes(t *testing.T) {
	// Two preplaced instructions with different homes on one chain: the
	// pass must not force them onto one cluster.
	g := ir.New("split")
	a := g.AddConst(0)
	ld1 := g.AddLoad(1, a.ID)
	ld1.Home = 1
	n := g.Add(ir.Neg, ld1.ID)
	st := g.AddStore(2, a.ID, n.ID)
	st.Home = 2
	s := newRawState(t, g)
	Path{}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredCluster(ld1.ID); got != 1 {
		t.Errorf("ld1 preferred %d, want 1", got)
	}
	if got := s.W.PreferredCluster(st.ID); got != 2 {
		t.Errorf("st preferred %d, want 2", got)
	}
}

func TestCommAttractsTowardNeighbors(t *testing.T) {
	g := ir.New("comm")
	a := g.AddConst(1)
	b := g.AddConst(2)
	sum := g.Add(ir.Add, a.ID, b.ID)
	s := newRawState(t, g)
	// Bias the two producers hard toward cluster 2.
	s.W.MulCluster(a.ID, 2, 100)
	s.W.MulCluster(b.ID, 2, 100)
	s.W.NormalizeAll()
	Comm{}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredCluster(sum.ID); got != 2 {
		t.Errorf("consumer preferred %d, want 2", got)
	}
}

func TestCommGrandReachesDistanceTwo(t *testing.T) {
	g := ir.New("comm2")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	c := g.Add(ir.Neg, b.ID) // grandchild of a
	s := newRawState(t, g)
	s.W.MulCluster(a.ID, 3, 1000)
	s.W.NormalizeAll()
	Comm{IncludeGrand: true}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredCluster(c.ID); got != 3 {
		t.Errorf("grandchild preferred %d, want 3", got)
	}
}

func TestPlacePropPullsNeighborsHome(t *testing.T) {
	g := ir.New("pprop")
	addr := g.AddConst(0)
	ld := g.AddLoad(1, addr.ID)
	ld.Home = 1
	use := g.Add(ir.Neg, ld.ID)
	far := g.Add(ir.Neg, use.ID)
	s := newRawState(t, g)
	PlaceProp{}.Run(s)
	s.W.NormalizeAll()
	for _, i := range []int{use.ID, far.ID} {
		if got := s.W.PreferredCluster(i); got != 1 {
			t.Errorf("instr %d preferred %d, want 1", i, got)
		}
	}
	// Attraction decays with distance: the direct user should be more
	// confident than the grandchild.
	if s.W.Confidence(use.ID) < s.W.Confidence(far.ID) {
		t.Error("preplacement attraction did not decay with distance")
	}
}

func TestPlacePropNoopWithoutPreplacement(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 10, 4, 0)
	s := newRawState(t, g)
	before := s.W.Clone()
	PlaceProp{}.Run(s)
	for i := 0; i < s.W.N(); i++ {
		for c := 0; c < 4; c++ {
			if s.W.ClusterWeight(i, c) != before.ClusterWeight(i, c) {
				t.Fatal("PLACEPROP changed weights with no preplaced instructions")
			}
		}
	}
}

func TestLoadRebalances(t *testing.T) {
	g := ir.New("load")
	for i := 0; i < 8; i++ {
		g.AddConst(int64(i))
	}
	s := newRawState(t, g)
	// Overload cluster 0.
	for i := 0; i < 8; i++ {
		s.W.MulCluster(i, 0, 4)
	}
	s.W.NormalizeAll()
	before := s.LoadsInto(make([]float64, s.W.Clusters()))
	Load{}.Run(s)
	s.W.NormalizeAll()
	after := s.LoadsInto(make([]float64, s.W.Clusters()))
	if after[0] >= before[0] {
		t.Errorf("LOAD did not reduce the overloaded cluster: %v -> %v", before, after)
	}
	if after[1] <= before[1] {
		t.Errorf("LOAD did not raise an underloaded cluster: %v -> %v", before, after)
	}
}

func TestEmphCPBoostsEarliestStart(t *testing.T) {
	g := ir.New("emph")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	s := newRawState(t, g)
	EmphCP{}.Run(s)
	s.W.NormalizeAll()
	if got := s.W.PreferredTime(a.ID); got != 0 {
		t.Errorf("root preferred time = %d, want 0", got)
	}
	if got := s.W.PreferredTime(b.ID); got != 1 {
		t.Errorf("child preferred time = %d, want 1", got)
	}
}

func TestPathPropPropagatesConfidence(t *testing.T) {
	g := ir.New("chain")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	c := g.Add(ir.Neg, b.ID)
	s := newRawState(t, g)
	s.W.MulCluster(a.ID, 2, 100)
	s.W.NormalizeAll()
	PathProp{}.Run(s)
	s.W.NormalizeAll()
	for _, i := range []int{b.ID, c.ID} {
		if got := s.W.PreferredCluster(i); got != 2 {
			t.Errorf("instr %d preferred %d, want 2", i, got)
		}
	}
}

func TestPathPropRespectsThreshold(t *testing.T) {
	g := ir.New("chain")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	s := newRawState(t, g)
	s.W.MulCluster(a.ID, 2, 1.01) // barely confident
	s.W.NormalizeAll()
	PathProp{Threshold: 5}.Run(s)
	s.W.NormalizeAll()
	if got, want := s.W.ClusterWeight(b.ID, 2), 0.25; got > want+1e-9 {
		t.Errorf("low-confidence source still propagated: %v", got)
	}
}

func TestLevelDistributesWideLevel(t *testing.T) {
	// Eight independent constants at level 0: LEVEL should spread them
	// over the four clusters.
	g := ir.New("wide")
	for i := 0; i < 8; i++ {
		g.AddConst(int64(i))
	}
	s := newRawState(t, g)
	Level{MinDist: 1}.Run(s)
	s.W.NormalizeAll()
	used := map[int]bool{}
	for i := 0; i < 8; i++ {
		used[s.W.PreferredCluster(i)] = true
	}
	if len(used) < 3 {
		t.Errorf("LEVEL used only clusters %v for 8 independent instructions", used)
	}
}

func TestSequencesMatchTable1(t *testing.T) {
	rawWant := []string{"INITTIME", "PLACEPROP", "LOAD", "PLACE", "PATH", "PATHPROP", "LEVEL", "PATHPROP", "COMM2", "PATHPROP", "EMPHCP"}
	raw := RawSequence()
	if len(raw) != len(rawWant) {
		t.Fatalf("RawSequence has %d passes", len(raw))
	}
	for i, p := range raw {
		if p.Name() != rawWant[i] {
			t.Errorf("RawSequence[%d] = %s, want %s", i, p.Name(), rawWant[i])
		}
	}
	vliwWant := []string{"INITTIME", "NOISE", "FIRST", "PATH", "COMM", "PLACE", "PLACEPROP", "COMM", "EMPHCP"}
	vliw := PublishedVliwSequence()
	if len(vliw) != len(vliwWant) {
		t.Fatalf("PublishedVliwSequence has %d passes", len(vliw))
	}
	for i, p := range vliw {
		if p.Name() != vliwWant[i] {
			t.Errorf("PublishedVliwSequence[%d] = %s, want %s", i, p.Name(), vliwWant[i])
		}
	}
	// The working VLIW sequence is Table 1b with FULOAD inserted after
	// each COMM.
	usedWant := []string{"INITTIME", "NOISE", "FIRST", "PATH", "COMM", "FULOAD", "PLACE", "PLACEPROP", "COMM", "FULOAD", "EMPHCP"}
	used := VliwSequence()
	if len(used) != len(usedWant) {
		t.Fatalf("VliwSequence has %d passes", len(used))
	}
	for i, p := range used {
		if p.Name() != usedWant[i] {
			t.Errorf("VliwSequence[%d] = %s, want %s", i, p.Name(), usedWant[i])
		}
	}
}

func TestForMachineDispatch(t *testing.T) {
	if got := ForMachine("raw16"); got[1].Name() != "PLACEPROP" {
		t.Error("ForMachine(raw16) did not return the Raw sequence")
	}
	if got := ForMachine("vliw4"); got[1].Name() != "NOISE" {
		t.Error("ForMachine(vliw4) did not return the VLIW sequence")
	}
}

func TestTunedSequencesResolve(t *testing.T) {
	for _, tc := range []struct {
		machine string
		labels  []string
	}{
		{"raw4", TunedRawLabels},
		{"vliw4", TunedVliwLabels},
	} {
		if len(tc.labels) == 0 {
			t.Fatalf("tuned labels for %s empty", tc.machine)
		}
		for _, l := range tc.labels {
			if _, ok := Named(l); !ok {
				t.Errorf("tuned sequence for %s names unknown pass %q", tc.machine, l)
			}
		}
		seq := TunedForMachine(tc.machine)
		if len(seq) != len(tc.labels) {
			t.Fatalf("TunedForMachine(%s) has %d passes, labels list %d", tc.machine, len(seq), len(tc.labels))
		}
		for i, p := range seq {
			if p.Name() != tc.labels[i] {
				t.Errorf("TunedForMachine(%s)[%d] = %s, want %s", tc.machine, i, p.Name(), tc.labels[i])
			}
		}
	}
	if got, want := TunedLabelsForMachine("raw16"), &TunedRawLabels[0]; &got[0] != want {
		t.Error("TunedLabelsForMachine(raw16) did not return TunedRawLabels")
	}
	if got, want := TunedLabelsForMachine("vliw8"), &TunedVliwLabels[0]; &got[0] != want {
		t.Error("TunedLabelsForMachine(vliw8) did not return TunedVliwLabels")
	}
}

func TestNamedRoundTrip(t *testing.T) {
	for _, label := range AllLabels() {
		p, ok := Named(label)
		if !ok {
			t.Errorf("Named(%q) not found", label)
			continue
		}
		if p.Name() != label {
			t.Errorf("Named(%q).Name() = %q", label, p.Name())
		}
	}
	if _, ok := Named("BOGUS"); ok {
		t.Error("Named accepted BOGUS")
	}
}

// Property: every pass preserves the weight-map invariants (after the
// driver's normalization) on random graphs with preplacement.
func TestQuickPassesPreserveInvariants(t *testing.T) {
	passes := []core.Pass{
		InitTime{}, Noise{}, Place{}, First{}, Path{}, Comm{},
		Comm{IncludeGrand: true}, PlaceProp{}, Load{}, Level{},
		PathProp{}, EmphCP{},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12+rng.Intn(20), 4, 3)
		s := core.NewState(g, machine.Raw(4), seed)
		for _, p := range passes {
			p.Run(s)
			s.W.NormalizeAll()
			if err := s.W.CheckInvariants(1e-6); err != nil {
				t.Logf("pass %s: %v", p.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: running the full published sequences always yields a schedulable
// assignment (preplacement respected, all clusters in range).
func TestQuickSequencesProduceLegalAssignments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10+rng.Intn(30), 4, 4)
		_, res, err := core.Schedule(g, machine.Raw(4), RawSequence(), seed)
		if err != nil {
			return false
		}
		for i, c := range res.Assignment {
			if c < 0 || c >= 4 {
				return false
			}
			if h := g.Instrs[i].Home; h >= 0 && c != h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
