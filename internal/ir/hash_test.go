package ir_test

// Property tests for the canonical graph hash: invariant under topological
// renumbering of an isomorphic graph, and sensitive to every semantic
// ingredient — an edge, an opcode, an immediate, a bank, a home. The
// perturbation sources are the internal/faultinject graph mutators (the same
// ones the chaos suite uses to lie to schedulers) plus direct field edits.

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
)

// corpus returns a varied set of graphs: real kernels with memory edges and
// preplacement, plus layered random DAGs.
func corpus(t *testing.T) []*ir.Graph {
	t.Helper()
	var out []*ir.Graph
	for _, name := range []string{"mxm", "jacobi", "sha", "fir"} {
		k, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %s", name)
		}
		out = append(out, k.Build(4))
	}
	out = append(out, bench.RandomLayered(120, 12, 4, 7))
	out = append(out, bench.RandomLayered(60, 6, 2, 11))
	return out
}

func TestCanonicalHashInvariantUnderRenumbering(t *testing.T) {
	for _, g := range corpus(t) {
		want := g.CanonicalHash()
		for seed := int64(1); seed <= 5; seed++ {
			perm := ir.RandomRenumbering(g, seed)
			rg, err := ir.Renumber(g, perm)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			if err := rg.Validate(); err != nil {
				t.Fatalf("%s seed %d: renumbered graph invalid: %v", g.Name, seed, err)
			}
			if got := rg.CanonicalHash(); got != want {
				t.Errorf("%s seed %d: hash changed under renumbering: %s != %s", g.Name, seed, got, want)
			}
			// Renumbering again with a different seed must agree too.
			perm2 := ir.RandomRenumbering(rg, seed+100)
			rg2, err := ir.Renumber(rg, perm2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			if got := rg2.CanonicalHash(); got != want {
				t.Errorf("%s seed %d: hash changed under double renumbering", g.Name, seed)
			}
		}
	}
}

// TestCanonicalMatchesReference: the key-sorted order and single-buffer
// hash must equal the comparator-sorted reference, on every corpus graph
// under random topological renumberings (which move the ID tie-break), on
// the Figure 10 sizes, and on the empty, one-instruction and all-tied
// graphs.
func TestCanonicalMatchesReference(t *testing.T) {
	check := func(label string, g *ir.Graph) {
		t.Helper()
		want := irtest.RefCanonical(g)
		got := g.Canonical()
		if got.Hash != want.Hash {
			t.Errorf("%s: hash %s, reference %s", label, got.Hash, want.Hash)
		}
		if !slices.Equal(got.Order, want.Order) {
			t.Errorf("%s: order differs from the reference", label)
		}
	}
	graphs := corpus(t)
	for _, n := range []int{1000, 2000} {
		graphs = append(graphs, bench.RandomLayered(n, n/12+4, 4, 1))
	}
	for _, g := range graphs {
		check(g.Name, g)
		for seed := int64(1); seed <= 4; seed++ {
			rg, err := ir.Renumber(g, ir.RandomRenumbering(g, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			check(g.Name+"/renumbered", rg)
		}
	}
	check("empty", ir.New("empty"))
	one := ir.New("one")
	one.AddConst(3)
	check("one", one)
	tied := ir.New("tied")
	for i := 0; i < 300; i++ {
		tied.AddConst(0)
	}
	check("tied", tied)
	pairs := ir.New("pairs")
	for i := 0; i < 50; i++ {
		a := pairs.AddConst(int64(i % 3))
		pairs.Add(ir.Neg, a.ID)
	}
	check("pairs", pairs)
}

func TestCanonicalOrderIsPermutation(t *testing.T) {
	for _, g := range corpus(t) {
		c := g.Canonical()
		if len(c.Order) != g.Len() {
			t.Fatalf("%s: order has %d entries for %d instructions", g.Name, len(c.Order), g.Len())
		}
		seen := make([]bool, g.Len())
		for i, r := range c.Order {
			if r < 0 || r >= g.Len() || seen[r] {
				t.Fatalf("%s: Order[%d] = %d is not a permutation", g.Name, i, r)
			}
			seen[r] = true
		}
	}
}

// TestCanonicalHashSensitiveToGraphMutation uses the fault-injection graph
// mutators as the perturbation source: each one changes real dependence
// structure, so the hash must change.
func TestCanonicalHashSensitiveToGraphMutation(t *testing.T) {
	mutators := []struct {
		name string
		fn   func(*ir.Graph, int64) (*ir.Graph, bool)
	}{
		{"rewire-arg", faultinject.RewireArg},
		{"drop-memedge", faultinject.DropMemEdge},
	}
	for _, g := range corpus(t) {
		want := g.CanonicalHash()
		for _, mut := range mutators {
			applied := 0
			for seed := int64(1); seed <= 8; seed++ {
				mg, ok := mut.fn(g, seed)
				if !ok {
					continue
				}
				applied++
				if got := mg.CanonicalHash(); got == want {
					t.Errorf("%s: %s(seed=%d) left the hash unchanged", g.Name, mut.name, seed)
				}
			}
			if applied == 0 {
				t.Logf("%s: %s never applied (no eligible site)", g.Name, mut.name)
			}
		}
	}
}

// TestCanonicalHashSensitiveToFields flips every semantic instruction field
// one at a time and asserts a hash change.
func TestCanonicalHashSensitiveToFields(t *testing.T) {
	k, _ := bench.ByName("mxm")
	g := k.Build(4)
	want := g.CanonicalHash()

	edit := func(name string, f func(c *ir.Graph) bool) {
		c := g.Clone()
		if !f(c) {
			t.Fatalf("%s: edit found no eligible instruction", name)
		}
		if got := c.CanonicalHash(); got == want {
			t.Errorf("%s: hash unchanged", name)
		}
	}

	edit("opcode", func(c *ir.Graph) bool {
		for _, in := range c.Instrs {
			switch in.Op {
			case ir.FAdd:
				in.Op = ir.FSub
				return true
			case ir.Add:
				in.Op = ir.Sub
				return true
			}
		}
		return false
	})
	edit("int-immediate", func(c *ir.Graph) bool {
		for _, in := range c.Instrs {
			if in.Op == ir.ConstInt {
				in.Imm++
				return true
			}
		}
		return false
	})
	edit("bank", func(c *ir.Graph) bool {
		for _, in := range c.Instrs {
			if in.Op.IsMemory() {
				in.Bank++
				return true
			}
		}
		return false
	})
	edit("home", func(c *ir.Graph) bool {
		for _, in := range c.Instrs {
			if in.Preplaced() {
				in.Home = (in.Home + 1) % 4
				return true
			}
		}
		return false
	})
	edit("operand-order", func(c *ir.Graph) bool {
		for _, in := range c.Instrs {
			// Swapping distinct operands of a non-commutative op (Store:
			// address vs value) is a different computation; the hash
			// orders operands, so the swap must register.
			switch in.Op {
			case ir.Sub, ir.FSub, ir.Div, ir.FDiv, ir.Shl, ir.Shr, ir.Slt, ir.Store:
				if len(in.Args) == 2 && in.Args[0] != in.Args[1] {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
					return true
				}
			}
		}
		return false
	})
	edit("extra-memedge", func(c *ir.Graph) bool {
		var mems []int
		for i, in := range c.Instrs {
			if in.Op.IsMemory() {
				mems = append(mems, i)
			}
		}
		for i := 0; i+1 < len(mems); i++ {
			from, to := mems[i], mems[i+1]
			dup := false
			for _, e := range c.MemEdges() {
				if e[0] == from && e[1] == to {
					dup = true
					break
				}
			}
			if !dup {
				c.AddMemEdge(from, to)
				return true
			}
		}
		return false
	})
}

// TestCanonicalHashDistinguishesSharingFromDuplication pins a subtle case:
// one constant consumed twice is not the same scheduling unit as two copies
// of the constant consumed once each.
func TestCanonicalHashDistinguishesSharingFromDuplication(t *testing.T) {
	shared := ir.New("shared")
	c := shared.AddConst(1)
	shared.Add(ir.Add, c.ID, c.ID)

	dup := ir.New("dup")
	c1 := dup.AddConst(1)
	c2 := dup.AddConst(1)
	dup.Add(ir.Add, c1.ID, c2.ID)

	if shared.CanonicalHash() == dup.CanonicalHash() {
		t.Error("shared-operand and duplicated-operand graphs share a hash")
	}
}

func TestRenumberRejectsBadPermutations(t *testing.T) {
	g := ir.New("g")
	a := g.AddConst(1)
	b := g.AddConst(2)
	g.Add(ir.Add, a.ID, b.ID)

	if _, err := ir.Renumber(g, []int{0, 1}); err == nil {
		t.Error("short perm accepted")
	}
	if _, err := ir.Renumber(g, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	// Putting the consumer before a producer breaks topological order.
	if _, err := ir.Renumber(g, []int{2, 1, 0}); err == nil {
		t.Error("non-topological perm accepted")
	}
}
