package irtext_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/irtext"
)

// refString renders g with the reference printer.
func refString(t *testing.T, g *ir.Graph) string {
	t.Helper()
	var b strings.Builder
	if err := irtext.RefPrint(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkPrint requires String, Print and every Instr.String on g to match
// the reference renderer byte for byte.
func checkPrint(t *testing.T, label string, g *ir.Graph) {
	t.Helper()
	want := refString(t, g)
	if got := irtext.String(g); got != want {
		t.Errorf("%s: String differs from the reference:\n%s\nwant:\n%s", label, got, want)
		return
	}
	// The buffer is sized exactly, but for float immediates, which are
	// bounded by the longest float64.
	n, floats := irtext.TextLen(g), false
	for _, in := range g.Instrs {
		floats = floats || in.Op == ir.ConstFloat
	}
	if n < len(want) || !floats && n != len(want) {
		t.Errorf("%s: String sizes its buffer at %d bytes for %d of text", label, n, len(want))
	}
	var b strings.Builder
	if err := irtext.Print(&b, g); err != nil || b.String() != want {
		t.Errorf("%s: Print differs from the reference (err %v)", label, err)
	}
	for _, in := range g.Instrs {
		if got, want := in.String(), irtext.RefInstrString(in); got != want {
			t.Errorf("%s: Instr.String = %q, reference %q", label, got, want)
		}
	}
}

// TestPrintMatchesReference: every kernel at 2, 4 and 16 clusters and the
// Fig. 10 random DAGs render exactly as the fmt-based reference does.
func TestPrintMatchesReference(t *testing.T) {
	for _, k := range bench.All() {
		for _, c := range []int{2, 4, 16} {
			checkPrint(t, k.Name, k.Build(c))
		}
	}
	for _, n := range []int{100, 250, 1000, 2000} {
		checkPrint(t, "random", bench.RandomLayered(n, n/12+4, 4, int64(n)))
	}
}

// TestPrintMatchesReferenceOnHandGraphs covers what the kernels do not:
// graph and instruction names, memory edges, banks and homes, extreme
// integer immediates, and float immediates whose %g form is unusual.
func TestPrintMatchesReferenceOnHandGraphs(t *testing.T) {
	g := ir.New("hand-built")
	for _, v := range []int64{0, -1, 7, -42, math.MaxInt64, math.MinInt64, 1 << 40} {
		g.AddConst(v).Name = "c"
	}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, 1e20, 1e-7, 1e-4,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -1.5, 0.1, 123456789.125, 1 / 3.0,
	} {
		g.AddFConst(v)
	}
	addr := g.AddConst(3)
	addr.Home = 2
	ld := g.AddLoad(1, addr.ID)
	ld.Home, ld.Name = 1, "A[i] ; trailing"
	st := g.AddStore(0, addr.ID, ld.ID)
	st.Home = 0
	ld2 := g.AddLoad(0, addr.ID)
	ld2.Name = "ü name"
	g.AddMemEdge(st.ID, ld2.ID)
	g.AddMemEdge(ld.ID, st.ID)
	sum := g.Add(ir.Add, ld2.ID, ld.ID)
	g.Add(ir.Sel, sum.ID, ld.ID, ld2.ID)
	checkPrint(t, "hand", g)

	anon := ir.New("")
	anon.AddConst(1)
	checkPrint(t, "anonymous", anon)
	checkPrint(t, "empty", ir.New(""))

	bad := &ir.Instr{ID: 12, Op: ir.Op(99), Args: []int{3}, Bank: ir.NoBank, Home: ir.NoHome}
	if got, want := bad.String(), irtext.RefInstrString(bad); got != want {
		t.Errorf("undefined op: %q, reference %q", got, want)
	}
}

// TestStringAllocatesOnce: String sizes its buffer up front, so rendering
// a kernel costs exactly the returned string.
func TestStringAllocatesOnce(t *testing.T) {
	g := bench.RandomLayered(1000, 1000/12+4, 4, 5)
	g.AddFConst(-2.2250738585072014e-308)
	k, _ := bench.ByName("cholesky")
	for _, g := range []*ir.Graph{k.Build(16), g} {
		if n := testing.AllocsPerRun(20, func() { irtext.String(g) }); n != 1 {
			t.Errorf("%s: String allocates %.1f times, want 1", g.Name, n)
		}
	}
}
