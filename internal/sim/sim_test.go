package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
)

func TestEvalIntegerOps(t *testing.T) {
	cases := []struct {
		op   ir.Op
		args []Value
		want int64
	}{
		{ir.Add, []Value{IntVal(3), IntVal(4)}, 7},
		{ir.Sub, []Value{IntVal(3), IntVal(4)}, -1},
		{ir.Mul, []Value{IntVal(3), IntVal(4)}, 12},
		{ir.Div, []Value{IntVal(9), IntVal(2)}, 4},
		{ir.Div, []Value{IntVal(9), IntVal(0)}, 0},
		{ir.Rem, []Value{IntVal(9), IntVal(4)}, 1},
		{ir.Rem, []Value{IntVal(9), IntVal(0)}, 0},
		{ir.And, []Value{IntVal(6), IntVal(3)}, 2},
		{ir.Or, []Value{IntVal(6), IntVal(3)}, 7},
		{ir.Xor, []Value{IntVal(6), IntVal(3)}, 5},
		{ir.Shl, []Value{IntVal(1), IntVal(4)}, 16},
		{ir.Shr, []Value{IntVal(-1), IntVal(60)}, 15},
		{ir.Rotl, []Value{IntVal(1), IntVal(63)}, math.MinInt64},
		{ir.Neg, []Value{IntVal(5)}, -5},
		{ir.Not, []Value{IntVal(0)}, -1},
		{ir.Slt, []Value{IntVal(1), IntVal(2)}, 1},
		{ir.Slt, []Value{IntVal(2), IntVal(1)}, 0},
		{ir.Seq, []Value{IntVal(2), IntVal(2)}, 1},
		{ir.Min, []Value{IntVal(2), IntVal(5)}, 2},
		{ir.Max, []Value{IntVal(2), IntVal(5)}, 5},
		{ir.Sel, []Value{IntVal(1), IntVal(10), IntVal(20)}, 10},
		{ir.Sel, []Value{IntVal(0), IntVal(10), IntVal(20)}, 20},
		{ir.FloatToInt, []Value{FloatVal(3.7)}, 3},
		{ir.Copy, []Value{IntVal(42)}, 42},
	}
	for _, c := range cases {
		got := eval(&ir.Instr{Op: c.op}, c.args)
		if got.IsFloat || got.I != c.want {
			t.Errorf("%v%v = %v, want %d", c.op, c.args, got, c.want)
		}
	}
}

func TestEvalFloatOps(t *testing.T) {
	cases := []struct {
		op   ir.Op
		args []Value
		want float64
	}{
		{ir.FAdd, []Value{FloatVal(1.5), FloatVal(2.5)}, 4},
		{ir.FSub, []Value{FloatVal(1.5), FloatVal(2.5)}, -1},
		{ir.FMul, []Value{FloatVal(1.5), FloatVal(2)}, 3},
		{ir.FDiv, []Value{FloatVal(3), FloatVal(2)}, 1.5},
		{ir.FDiv, []Value{FloatVal(3), FloatVal(0)}, 0},
		{ir.FNeg, []Value{FloatVal(2)}, -2},
		{ir.FAbs, []Value{FloatVal(-2)}, 2},
		{ir.FSqrt, []Value{FloatVal(9)}, 3},
		{ir.FSqrt, []Value{FloatVal(-9)}, 0},
		{ir.FMin, []Value{FloatVal(1), FloatVal(2)}, 1},
		{ir.FMax, []Value{FloatVal(1), FloatVal(2)}, 2},
		{ir.FMA, []Value{FloatVal(2), FloatVal(3), FloatVal(4)}, 10},
		{ir.IntToFloat, []Value{IntVal(7)}, 7},
	}
	for _, c := range cases {
		got := eval(&ir.Instr{Op: c.op}, c.args)
		if !got.IsFloat || got.F != c.want {
			t.Errorf("%v%v = %v, want %g", c.op, c.args, got, c.want)
		}
	}
}

func TestEvalMixedOperandCoercion(t *testing.T) {
	// Integer operand to a float op converts; float operand to an int op
	// truncates.
	got := eval(&ir.Instr{Op: ir.FAdd}, []Value{IntVal(2), FloatVal(0.5)})
	if got.F != 2.5 {
		t.Errorf("FAdd coercion = %v", got)
	}
	got = eval(&ir.Instr{Op: ir.Add}, []Value{FloatVal(2.9), IntVal(1)})
	if got.I != 3 {
		t.Errorf("Add coercion = %v", got)
	}
}

func TestEvalPanicsOnMemoryOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("eval(Load) did not panic")
		}
	}()
	eval(&ir.Instr{Op: ir.Load}, []Value{IntVal(0)})
}

func TestValueEqualNaN(t *testing.T) {
	if !FloatVal(math.NaN()).Equal(FloatVal(math.NaN())) {
		t.Error("NaN != NaN in Equal")
	}
	if FloatVal(1).Equal(IntVal(1)) {
		t.Error("float 1 equals int 1")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Store(2, 10, IntVal(99))
	if got := m.Load(2, 10); got.I != 99 {
		t.Errorf("Load = %v", got)
	}
	if got := m.Load(2, 11); got != (Value{}) {
		t.Errorf("untouched Load = %v", got)
	}
	if got := m.Load(5, 0); got != (Value{}) {
		t.Errorf("untouched bank Load = %v", got)
	}
	c := m.Clone()
	c.Store(2, 10, IntVal(1))
	if m.Load(2, 10).I != 99 {
		t.Error("Clone shares storage")
	}
}

func TestMemoryEqualIgnoresZeroCells(t *testing.T) {
	a := NewMemory()
	b := NewMemory()
	a.Store(0, 0, IntVal(0))
	if !a.Equal(b) {
		t.Error("explicit zero cell != absent cell")
	}
	a.Store(0, 1, IntVal(5))
	if a.Equal(b) {
		t.Error("differing memories compare equal")
	}
}

func TestReferenceExecution(t *testing.T) {
	g := ir.New("ref")
	a := g.AddConst(6)
	b := g.AddConst(7)
	p := g.Add(ir.Mul, a.ID, b.ID)
	addr := g.AddConst(3)
	g.AddStore(1, addr.ID, p.ID)
	res, err := Reference(g, NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[p.ID].I != 42 {
		t.Errorf("mul = %v", res.Values[p.ID])
	}
	if got := res.Memory.Load(1, 3); got.I != 42 {
		t.Errorf("stored = %v", got)
	}
}

func TestReferenceLoadSeesInitialMemory(t *testing.T) {
	g := ir.New("ld")
	addr := g.AddConst(5)
	ld := g.AddLoad(0, addr.ID)
	init := NewMemory()
	init.Store(0, 5, FloatVal(2.5))
	res, err := Reference(g, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[ld.ID].F != 2.5 {
		t.Errorf("load = %v", res.Values[ld.ID])
	}
	// Initial memory must not be mutated.
	if init.Load(0, 5).F != 2.5 {
		t.Error("Reference mutated the initial memory")
	}
}

// scheduleFor list-schedules g with everything on cluster 0 variants spread
// round-robin where legal.
func scheduleFor(t *testing.T, g *ir.Graph, m *machine.Model) *Result {
	t.Helper()
	assign := make([]int, g.Len())
	for i, in := range g.Instrs {
		if in.Preplaced() {
			assign[i] = in.Home
		} else if in.Op.IsMemory() {
			assign[i] = m.BankOwner(in.Bank)
		} else {
			assign[i] = i % m.NumClusters
		}
	}
	s, err := listsched.Run(g, m, listsched.Options{Assignment: assign})
	if err != nil {
		t.Fatalf("listsched: %v", err)
	}
	res, err := Verify(s, NewMemory())
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

func TestVerifyScheduledMatchesReference(t *testing.T) {
	g := ir.New("verify")
	a := g.AddConst(6)
	b := g.AddConst(7)
	p := g.Add(ir.Mul, a.ID, b.ID)
	q := g.Add(ir.Add, p.ID, a.ID)
	addr := g.AddConst(0)
	g.AddStore(2, addr.ID, q.ID)
	res := scheduleFor(t, g, machine.Raw(4))
	if res.Values[q.ID].I != 48 {
		t.Errorf("result = %v", res.Values[q.ID])
	}
	if res.Cycles <= 0 {
		t.Error("scheduled run has no cycle count")
	}
}

func TestVerifyStoreLoadChainAcrossClusters(t *testing.T) {
	g := ir.New("chainmem")
	addr := g.AddConst(4)
	v := g.AddConst(11)
	st := g.AddStore(1, addr.ID, v.ID)
	st.Home = 1
	ld := g.AddLoad(1, addr.ID)
	ld.Home = 1
	g.AddMemEdge(st.ID, ld.ID)
	res := scheduleFor(t, g, machine.Raw(2))
	if res.Values[ld.ID].I != 11 {
		t.Errorf("load after store = %v", res.Values[ld.ID])
	}
}

func TestVerifyDetectsWrongOrder(t *testing.T) {
	// Build a valid schedule, then corrupt it so the load issues before
	// the store; Run must refuse (validation catches the memory edge).
	g := ir.New("bad")
	addr := g.AddConst(4)
	v := g.AddConst(11)
	st := g.AddStore(0, addr.ID, v.ID)
	ld := g.AddLoad(0, addr.ID)
	g.AddMemEdge(st.ID, ld.ID)
	m := machine.Raw(1)
	s, err := listsched.Run(g, m, listsched.Options{Assignment: make([]int, 4)})
	if err != nil {
		t.Fatal(err)
	}
	s.Placements[ld.ID].Start = 0
	if _, err := Run(s, NewMemory()); err == nil {
		t.Error("Run accepted a schedule violating a memory edge")
	}
}

// Property: for random graphs and a legal round-robin assignment, the
// scheduled execution always matches reference execution.
func TestQuickScheduledEqualsReference(t *testing.T) {
	m := machine.Chorus(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ir.New("q")
		n := 15 + rng.Intn(25)
		// Serialize memory ops per bank so no unordered aliasing pair
		// exists (the kernel generators do the same with real alias
		// information).
		lastMem := map[int]int{}
		chain := func(in *ir.Instr) {
			if prev, ok := lastMem[in.Bank]; ok {
				g.AddMemEdge(prev, in.ID)
			}
			lastMem[in.Bank] = in.ID
		}
		var results []int // IDs of value-producing instructions
		pick := func() int { return results[rng.Intn(len(results))] }
		for i := 0; i < n; i++ {
			switch {
			case i < 2:
				results = append(results, g.AddConst(int64(rng.Intn(100))).ID)
			case rng.Intn(6) == 0:
				ld := g.AddLoad(rng.Intn(4), pick())
				chain(ld)
				results = append(results, ld.ID)
			case rng.Intn(8) == 0:
				chain(g.AddStore(rng.Intn(4), pick(), pick()))
			default:
				ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Xor, ir.Min}
				results = append(results, g.Add(ops[rng.Intn(len(ops))], pick(), pick()).ID)
			}
		}
		assign := make([]int, g.Len())
		for i, in := range g.Instrs {
			assign[i] = rng.Intn(4)
			if in.Preplaced() {
				assign[i] = in.Home
			}
		}
		s, err := listsched.Run(g, m, listsched.Options{Assignment: assign})
		if err != nil {
			t.Logf("seed %d: listsched: %v", seed, err)
			return false
		}
		if _, err := Verify(s, NewMemory()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
