package core

// Reference-differential tests for PrefMap's time windows. refMap below is a
// full-width PrefMap: every sweep visits all T×C slots of a row, with no
// window. Random operation sequences run through both maps side by side,
// and after every operation the weights and both marginal caches must be
// bit-identical and every slot outside the window exactly zero. That pins
// the claim that sweeping only the window changes no output bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMap is the full-width reference: the same weight layout and the same
// per-slot arithmetic as PrefMap, with every row sweep running over 0..T-1.
type refMap struct {
	n, T, C    int
	w          []float64
	dirty      []bool
	clusterSum []float64
	timeSum    []float64
}

func newRefMap(n, T, C int) *refMap {
	r := &refMap{n: n, T: T, C: C,
		w:          make([]float64, n*T*C),
		dirty:      make([]bool, n),
		clusterSum: make([]float64, n*C),
		timeSum:    make([]float64, n*T),
	}
	u := 1.0 / float64(T*C)
	for k := range r.w {
		r.w[k] = u
	}
	for i := range r.dirty {
		r.dirty[i] = true
	}
	return r
}

func (r *refMap) row(i int) []float64 { return r.w[i*r.T*r.C : (i+1)*r.T*r.C] }

func (r *refMap) set(i, t, c int, v float64) {
	r.row(i)[t*r.C+c] = v
	r.dirty[i] = true
}

func (r *refMap) mulCluster(i, c int, f float64) {
	row := r.row(i)
	for t := 0; t < r.T; t++ {
		row[t*r.C+c] *= f
	}
	r.dirty[i] = true
}

func (r *refMap) mulTime(i, t int, f float64) {
	row := r.row(i)
	for c := 0; c < r.C; c++ {
		row[t*r.C+c] *= f
	}
	r.dirty[i] = true
}

// sweep rewrites every slot of instruction i through f.
func (r *refMap) sweep(i int, f func(t, c int, w float64) float64) {
	row := r.row(i)
	for t := 0; t < r.T; t++ {
		for c := 0; c < r.C; c++ {
			row[t*r.C+c] = f(t, c, row[t*r.C+c])
		}
	}
	r.dirty[i] = true
}

func (r *refMap) blend(i, j int, own float64) {
	ri, rj := r.row(i), r.row(j)
	other := 1 - own
	for k := range ri {
		ri[k] = own*ri[k] + other*rj[k]
	}
	r.dirty[i] = true
}

func (r *refMap) nonzeroSlotsPerCluster(i int) []int {
	dst := make([]int, r.C)
	row := r.row(i)
	for t := 0; t < r.T; t++ {
		for c := 0; c < r.C; c++ {
			if row[t*r.C+c] > 0 {
				dst[c]++
			}
		}
	}
	return dst
}

func (r *refMap) refresh(i int) {
	if !r.dirty[i] {
		return
	}
	cs := r.clusterSum[i*r.C : (i+1)*r.C]
	ts := r.timeSum[i*r.T : (i+1)*r.T]
	for c := range cs {
		cs[c] = 0
	}
	row := r.row(i)
	for t := 0; t < r.T; t++ {
		sum := 0.0
		for c := 0; c < r.C; c++ {
			w := row[t*r.C+c]
			cs[c] += w
			sum += w
		}
		ts[t] = sum
	}
	r.dirty[i] = false
}

func (r *refMap) normalize(i int) {
	r.refresh(i)
	total := 0.0
	for _, v := range r.clusterSum[i*r.C : (i+1)*r.C] {
		total += v
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) || math.IsInf(1/total, 0) {
		u := 1.0 / float64(r.T*r.C)
		r.sweep(i, func(int, int, float64) float64 { return u })
	} else {
		inv := 1 / total
		r.sweep(i, func(_, _ int, w float64) float64 { return w * inv })
	}
	r.refresh(i)
}

// windowOp is one operation applied identically to a PrefMap and its
// full-width reference.
type windowOp struct {
	name string
	do   func(p *PrefMap, r *refMap)
}

func opSet(i, t, c int, v float64) windowOp {
	return windowOp{"Set", func(p *PrefMap, r *refMap) { p.Set(i, t, c, v); r.set(i, t, c, v) }}
}

func opMulCluster(i, c int, f float64) windowOp {
	return windowOp{"MulCluster", func(p *PrefMap, r *refMap) { p.MulCluster(i, c, f); r.mulCluster(i, c, f) }}
}

func opZeroTimesOutside(i, lo, hi int) windowOp {
	return windowOp{"ZeroTimesOutside", func(p *PrefMap, r *refMap) {
		p.ZeroTimesOutside(i, lo, hi)
		r.sweep(i, func(t, _ int, w float64) float64 {
			if t < lo || t > hi {
				return 0
			}
			return w
		})
	}}
}

func opBlend(i, j int, own float64) windowOp {
	return windowOp{"Blend", func(p *PrefMap, r *refMap) { p.Blend(i, j, own); r.blend(i, j, own) }}
}

// opApply rewrites every slot w of instruction i to w·bias + lift; a
// positive lift revives the zero slots outside the window.
func opApply(i int, bias, lift float64) windowOp {
	f := func(_, _ int, w float64) float64 { return w*bias + lift }
	return windowOp{"Apply", func(p *PrefMap, r *refMap) { p.Apply(i, f); r.sweep(i, f) }}
}

func opMulTime(i, t int, f float64) windowOp {
	return windowOp{"MulTime", func(p *PrefMap, r *refMap) { p.MulTime(i, t, f); r.mulTime(i, t, f) }}
}

func opNormalize(i int) windowOp {
	return windowOp{"Normalize", func(p *PrefMap, r *refMap) { p.Normalize(i); r.normalize(i) }}
}

// randomWindowOp draws one operation over the whole mutation API, biased
// toward the cases the window has to get right: narrowing (including to an
// empty window), widening by a write outside the window, Blend across
// windows and a non-finite MulCluster factor.
func randomWindowOp(rng *rand.Rand, n, T, C int) windowOp {
	i := rng.Intn(n)
	switch rng.Intn(14) {
	case 0:
		v := rng.Float64() * 3
		if rng.Intn(3) == 0 {
			v = 0
		}
		return opSet(i, rng.Intn(T), rng.Intn(C), v)
	case 1:
		t, c, f := rng.Intn(T), rng.Intn(C), rng.Float64()*2
		return windowOp{"Mul", func(p *PrefMap, r *refMap) {
			p.Mul(i, t, c, f)
			r.set(i, t, c, r.row(i)[t*C+c]*f)
		}}
	case 2:
		t, c, d := rng.Intn(T), rng.Intn(C), rng.Float64()
		return windowOp{"Add", func(p *PrefMap, r *refMap) {
			p.Add(i, t, c, d)
			r.set(i, t, c, r.row(i)[t*C+c]+d)
		}}
	case 3:
		c := rng.Intn(C)
		if rng.Intn(8) == 0 {
			// +Inf turns the row's zeros into NaN, which Set, Mul, Add and
			// Apply reject, so the degenerate Normalize follows at once.
			return windowOp{"MulCluster(+Inf)+Normalize", func(p *PrefMap, r *refMap) {
				opMulCluster(i, c, math.Inf(1)).do(p, r)
				opNormalize(i).do(p, r)
			}}
		}
		return opMulCluster(i, c, rng.Float64()*2)
	case 4:
		return opMulTime(i, rng.Intn(T), rng.Float64()*2)
	case 5, 6:
		// Bounds may fall outside 0..T-1 and may cross (an empty window).
		lo := rng.Intn(T+2) - 1
		hi := lo + rng.Intn(T+1) - 1
		return opZeroTimesOutside(i, lo, hi)
	case 7:
		add := make([]float64, C)
		for c := range add {
			add[c] = rng.Float64() * 0.5
		}
		return windowOp{"AddPerClusterMasked", func(p *PrefMap, r *refMap) {
			p.AddPerClusterMasked(i, add)
			r.sweep(i, func(_, c int, w float64) float64 {
				if w != 0 {
					return w + add[c]
				}
				return w
			})
		}}
	case 8:
		f := make([]float64, C)
		for c := range f {
			f[c] = rng.Float64() * 2
		}
		return windowOp{"MulPerCluster", func(p *PrefMap, r *refMap) {
			p.MulPerCluster(i, f)
			r.sweep(i, func(_, c int, w float64) float64 { return w * f[c] })
		}}
	case 9:
		d := make([]float64, C)
		for c := range d {
			d[c] = 0.5 + rng.Float64()*2
		}
		return windowOp{"DivPerCluster", func(p *PrefMap, r *refMap) {
			p.DivPerCluster(i, d)
			r.sweep(i, func(_, c int, w float64) float64 { return w / d[c] })
		}}
	case 10:
		return opBlend(i, rng.Intn(n), rng.Float64())
	case 11:
		return opApply(i, rng.Float64()*2, rng.Float64()*0.1)
	case 12:
		return opNormalize(i)
	default:
		return windowOp{"NormalizeAll", func(p *PrefMap, r *refMap) {
			p.NormalizeAll()
			for k := 0; k < n; k++ {
				r.normalize(k)
			}
		}}
	}
}

// checkAgainstRef brings both maps' marginal caches up to date and asserts
// weights, cluster marginals, time marginals and per-cluster non-zero slot
// counts are bit-identical, and that every slot outside each window is 0.
func checkAgainstRef(t *testing.T, p *PrefMap, r *refMap, when string) {
	t.Helper()
	for i := 0; i < p.n; i++ {
		p.refresh(i)
		r.refresh(i)
		got := make([]int, p.C)
		p.NonzeroSlotsPerCluster(i, got)
		for c, want := range r.nonzeroSlotsPerCluster(i) {
			if got[c] != want {
				t.Fatalf("%s: NonzeroSlotsPerCluster(%d)[%d] = %d, reference %d", when, i, c, got[c], want)
			}
		}
	}
	sameBits(t, when, "w", p.w, r.w)
	sameBits(t, when, "clusterSum", p.clusterSum, r.clusterSum)
	sameBits(t, when, "timeSum", p.timeSum, r.timeSum)
	checkZeroOutsideWindow(t, p, when)
}

func sameBits(t *testing.T, when, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: %s[%d] = %v, reference %v", when, what, k, got[k], want[k])
		}
	}
}

// checkZeroOutsideWindow asserts the window contract: every slot of every
// instruction whose time lies outside the instruction's window is exactly 0.
func checkZeroOutsideWindow(t *testing.T, p *PrefMap, when string) {
	t.Helper()
	for i := 0; i < p.n; i++ {
		w := p.rows[i].win
		for tt := 0; tt < p.T; tt++ {
			if tt >= w.lo && tt <= w.hi {
				continue
			}
			for c := 0; c < p.C; c++ {
				if v := p.At(i, tt, c); v != 0 {
					t.Fatalf("%s: W[%d][%d][%d] = %v outside window [%d,%d]", when, i, tt, c, v, w.lo, w.hi)
				}
			}
		}
	}
}

// runWindowOps applies ops to a fresh map and reference of the given shape,
// checking both after every operation, and checks a Clone at the end.
func runWindowOps(t *testing.T, n, T, C int, ops []windowOp, label string) {
	t.Helper()
	p, r := NewPrefMap(n, T, C), newRefMap(n, T, C)
	checkAgainstRef(t, p, r, label+" fresh")
	for k, op := range ops {
		op.do(p, r)
		checkAgainstRef(t, p, r, fmt.Sprintf("%s after op %d %s", label, k, op.name))
	}
	checkAgainstRef(t, p.Clone(), r, label+" clone")
}

func TestPrefMapWindowMatchesFullWidthReference(t *testing.T) {
	rng := rand.New(rand.NewSource(346))
	for trial := 0; trial < 300; trial++ {
		n, T, C := 1+rng.Intn(6), 1+rng.Intn(12), 1+rng.Intn(5)
		ops := make([]windowOp, 1+rng.Intn(40))
		for k := range ops {
			ops[k] = randomWindowOp(rng, n, T, C)
		}
		runWindowOps(t, n, T, C, ops, fmt.Sprintf("trial %d (n=%d T=%d C=%d)", trial, n, T, C))
	}
}

func TestPrefMapWindowEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		n, T, C int
		ops     []windowOp
	}{
		{"blend disjoint windows", 2, 8, 3, []windowOp{
			opZeroTimesOutside(0, 1, 2), opZeroTimesOutside(1, 5, 6),
			opBlend(0, 1, 0.25), opNormalize(0), opBlend(1, 0, 0.5), opNormalize(1),
		}},
		{"blend empty into window", 2, 6, 2, []windowOp{
			opZeroTimesOutside(0, 4, 1), opZeroTimesOutside(1, 2, 3),
			opBlend(0, 1, 0.5), opNormalize(0),
		}},
		{"blend window into empty", 2, 6, 2, []windowOp{
			opZeroTimesOutside(0, 4, 1), opZeroTimesOutside(1, 2, 3),
			opBlend(1, 0, 0.5), opNormalize(1),
		}},
		{"blend both empty", 2, 5, 2, []windowOp{
			opZeroTimesOutside(0, 3, 2), opZeroTimesOutside(1, 9, 10),
			opBlend(0, 1, 0.5), opNormalize(0),
		}},
		{"zero outside with empty intersection", 1, 7, 2, []windowOp{
			opZeroTimesOutside(0, 1, 2), opZeroTimesOutside(0, 4, 6), opNormalize(0),
		}},
		{"mul cluster by +Inf under a narrow window", 1, 6, 3, []windowOp{
			opZeroTimesOutside(0, 2, 3), opMulCluster(0, 1, math.Inf(1)), opNormalize(0),
		}},
		{"set zero outside window", 1, 6, 2, []windowOp{
			opZeroTimesOutside(0, 2, 3), opSet(0, 5, 1, 0), opNormalize(0),
		}},
		{"set positive outside window", 1, 6, 2, []windowOp{
			opZeroTimesOutside(0, 2, 3), opSet(0, 0, 1, 0.75), opNormalize(0),
			opZeroTimesOutside(0, 1, 1), opSet(0, 5, 0, 2), opNormalize(0),
		}},
		{"mul time by +Inf outside window", 1, 6, 2, []windowOp{
			opZeroTimesOutside(0, 1, 2), opMulTime(0, 4, math.Inf(1)), opNormalize(0),
		}},
		{"apply revives zero slots", 1, 6, 2, []windowOp{
			opZeroTimesOutside(0, 2, 2), opApply(0, 1, 0.25), opNormalize(0),
		}},
		{"all-zero row reaches degenerate normalize", 1, 5, 3, []windowOp{
			opZeroTimesOutside(0, 1, 3), opMulCluster(0, 0, 0), opMulCluster(0, 1, 0),
			opMulCluster(0, 2, 0), opNormalize(0), opZeroTimesOutside(0, 0, 0), opNormalize(0),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runWindowOps(t, tc.n, tc.T, tc.C, tc.ops, tc.name)
		})
	}
}

// TestPrefMapWindowTracksOperations pins the window itself, not just its
// soundness: narrowing intersects, writes widen by exactly their slot,
// Blend takes the hull and Clone copies the windows.
func TestPrefMapWindowTracksOperations(t *testing.T) {
	p := NewPrefMap(2, 10, 2)
	want := func(i int, w window) {
		t.Helper()
		if p.rows[i].win != w {
			t.Fatalf("win[%d] = %v, want %v", i, p.rows[i].win, w)
		}
	}
	want(0, window{0, 9})
	p.ZeroTimesOutside(0, 2, 12)
	want(0, window{2, 9})
	p.ZeroTimesOutside(0, -1, 5)
	want(0, window{2, 5})
	p.Set(0, 7, 1, 0.5)
	want(0, window{2, 7})
	p.ZeroTimesOutside(1, 8, 9)
	p.ZeroTimesOutside(1, 0, 3)
	if !p.rows[1].win.empty() {
		t.Fatalf("win[1] = %v, want empty", p.rows[1].win)
	}
	p.MulTime(1, 4, 2)
	want(1, window{4, 4})
	p.Blend(1, 0, 0.5)
	want(1, window{2, 7})
	q := p.Clone()
	for i := range p.rows {
		if q.rows[i].win != p.rows[i].win {
			t.Fatalf("Clone win[%d] = %v, want %v", i, q.rows[i].win, p.rows[i].win)
		}
	}
}
