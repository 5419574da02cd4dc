package ir

import (
	"strings"
	"testing"
)

// diamond builds the four-node graph a -> {b, c} -> d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	a := g.AddConst(1)
	b := g.Add(Add, a.ID, a.ID)
	c := g.Add(Mul, a.ID, a.ID)
	g.Add(Sub, b.ID, c.ID)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond does not validate: %v", err)
	}
	return g
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	g := diamond(t)
	for i, in := range g.Instrs {
		if in.ID != i {
			t.Errorf("instruction at index %d has ID %d", i, in.ID)
		}
	}
}

func TestAddRejectsForwardReference(t *testing.T) {
	g := New("bad")
	g.AddConst(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with forward reference did not panic")
		}
	}()
	g.Add(Add, 0, 5)
}

func TestAddRejectsWrongArity(t *testing.T) {
	g := New("bad")
	g.AddConst(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong arity did not panic")
		}
	}()
	g.Add(Add, 0)
}

func TestAddRejectsResultlessOperand(t *testing.T) {
	g := New("bad")
	a := g.AddConst(0)
	st := g.AddStore(0, a.ID, a.ID)
	defer func() {
		if recover() == nil {
			t.Fatal("consuming a store result did not panic")
		}
	}()
	g.Add(Neg, st.ID)
}

func TestSealRejectsLaterAdd(t *testing.T) {
	g := diamond(t)
	g.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Seal did not panic")
		}
	}()
	g.AddConst(2)
}

func TestPredsSuccsDeduplicated(t *testing.T) {
	g := New("dedup")
	a := g.AddConst(1)
	b := g.Add(Add, a.ID, a.ID) // uses a twice
	if got := g.Preds(b.ID); len(got) != 1 || got[0] != a.ID {
		t.Errorf("Preds(b) = %v, want [%d]", got, a.ID)
	}
	if got := g.Succs(a.ID); len(got) != 1 || got[0] != b.ID {
		t.Errorf("Succs(a) = %v, want [%d]", got, b.ID)
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := diamond(t)
	for i := range g.Instrs {
		if root := len(g.Preds(i)) == 0; root != (i == 0) {
			t.Errorf("instruction %d is a root: %v, want %v", i, root, i == 0)
		}
	}
	if l := g.Leaves(); len(l) != 1 || l[0] != 3 {
		t.Errorf("Leaves = %v, want [3]", l)
	}
}

func TestMemEdgeOrdering(t *testing.T) {
	g := New("mem")
	addr := g.AddConst(0)
	v := g.AddConst(42)
	st := g.AddStore(0, addr.ID, v.ID)
	ld := g.AddLoad(0, addr.ID)
	g.AddMemEdge(st.ID, ld.ID)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	found := false
	for _, p := range g.Preds(ld.ID) {
		if p == st.ID {
			found = true
		}
	}
	if !found {
		t.Error("memory edge not reflected in Preds")
	}
}

func TestMemEdgeRejectsNonMemory(t *testing.T) {
	g := New("mem")
	a := g.AddConst(1)
	b := g.Add(Neg, a.ID)
	g.memEdges = append(g.memEdges, [2]int{a.ID, b.ID})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted memory edge between ALU ops")
	}
}

func TestValidateCatchesMissingBank(t *testing.T) {
	g := New("bank")
	addr := g.AddConst(0)
	ld := g.AddLoad(3, addr.ID)
	ld.Bank = NoBank
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted load without bank")
	}
}

func TestEarliestStartAndHeight(t *testing.T) {
	g := diamond(t)
	lat := func(op Op) int {
		if op == Mul {
			return 2
		}
		return 1
	}
	es := g.EarliestStart(lat)
	want := []int{0, 1, 1, 3} // sub must wait for mul (start 1 + lat 2)
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("EarliestStart[%d] = %d, want %d", i, es[i], want[i])
		}
	}
	h := g.Height(lat)
	wantH := []int{4, 2, 3, 1}
	for i := range wantH {
		if h[i] != wantH[i] {
			t.Errorf("Height[%d] = %d, want %d", i, h[i], wantH[i])
		}
	}
	if cpl := g.CriticalPathLength(lat); cpl != 4 {
		t.Errorf("CPL = %d, want 4", cpl)
	}
}

func TestUnitLevel(t *testing.T) {
	g := diamond(t)
	lv := g.UnitLevel()
	want := []int{0, 1, 1, 2}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("UnitLevel[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestDistancesBFS(t *testing.T) {
	g := New("chain")
	a := g.AddConst(1)
	b := g.Add(Neg, a.ID)
	c := g.Add(Neg, b.ID)
	iso := g.AddConst(9)
	d := g.DistancesInto(a.ID, make([]int32, g.Len()), make([]int32, g.Len()))
	if d[b.ID] != 1 || d[c.ID] != 2 {
		t.Errorf("Distances = %v", d)
	}
	if d[iso.ID] != -1 {
		t.Errorf("isolated node distance = %d, want -1", d[iso.ID])
	}
}

func TestNeighborsUnion(t *testing.T) {
	g := diamond(t)
	nb := g.Neighbors(1) // b: pred a, succ d
	if len(nb) != 2 {
		t.Errorf("Neighbors(1) = %v, want 2 entries", nb)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.Instrs[0].Imm = 99
	c.Instrs[1].Args[0] = 0
	if g.Instrs[0].Imm == 99 {
		t.Error("Clone shares Instr storage")
	}
	// Clone of a sealed graph must be extendable.
	g.Seal()
	c2 := g.Clone()
	c2.AddConst(5)
}

func TestStatsOnDiamond(t *testing.T) {
	g := diamond(t)
	s := g.ComputeStats()
	if s.Instrs != 4 || s.Edges != 4 || s.UnitCPL != 2 || s.MaxWidth != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Preplaced != 0 || s.MemOps != 0 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestStatsCountsClasses(t *testing.T) {
	g := New("mix")
	a := g.AddConst(0)
	ld := g.AddLoad(1, a.ID)
	ld.Home = 1
	f := g.AddFConst(1.5)
	g.Add(FAdd, f.ID, f.ID)
	s := g.ComputeStats()
	if s.Preplaced != 1 || s.MemOps != 1 || s.FloatOps != 2 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestInstrString(t *testing.T) {
	g := New("str")
	a := g.AddConst(7)
	ld := g.AddLoad(2, a.ID)
	ld.Home = 2
	if got := a.String(); got != "0: const 7" {
		t.Errorf("const String = %q", got)
	}
	got := ld.String()
	for _, want := range []string{"load %0", "bank=2", "@home=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("load String = %q, missing %q", got, want)
		}
	}
}

func TestOpRoundTrip(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		back, ok := OpFromString(op.String())
		if !ok || back != op {
			t.Errorf("OpFromString(%q) = %v, %v", op.String(), back, ok)
		}
	}
	if _, ok := OpFromString("bogus"); ok {
		t.Error("OpFromString accepted bogus mnemonic")
	}
}

func TestOpPredicates(t *testing.T) {
	if !Load.IsMemory() || !Store.IsMemory() || Add.IsMemory() {
		t.Error("IsMemory wrong")
	}
	if !FAdd.IsFloat() || Add.IsFloat() || Load.IsFloat() {
		t.Error("IsFloat wrong")
	}
	if Store.HasResult() || Nop.HasResult() || !Load.HasResult() {
		t.Error("HasResult wrong")
	}
	if ConstInt.Arity() != 0 || Sel.Arity() != 3 || Add.Arity() != 2 || Neg.Arity() != 1 {
		t.Error("Arity wrong")
	}
}

func TestDOTMentionsPreplaced(t *testing.T) {
	g := New("dot")
	a := g.AddConst(0)
	ld := g.AddLoad(1, a.ID)
	ld.Home = 1
	dot := g.DOT()
	if !strings.Contains(dot, "triangle") {
		t.Error("DOT does not mark preplaced instruction")
	}
	if !strings.Contains(dot, "n0 -> n1") {
		t.Error("DOT missing edge")
	}
}

func TestPreplacedList(t *testing.T) {
	g := New("pp")
	a := g.AddConst(0)
	ld := g.AddLoad(1, a.ID)
	ld.Home = 3
	pp := g.Preplaced()
	if len(pp) != 1 || pp[0] != ld.ID {
		t.Errorf("Preplaced = %v", pp)
	}
}

func TestEmptyGraphAnalyses(t *testing.T) {
	g := New("empty")
	if g.CriticalPathLength(func(Op) int { return 1 }) != 0 {
		t.Error("empty CPL != 0")
	}
}
