// Package core implements the paper's contribution: the convergent
// scheduling framework. A preference map assigns every instruction a weight
// for each (time slot, cluster) pair; independent heuristic passes
// communicate exclusively by reshaping these weights. After all passes run,
// each instruction's preferred cluster becomes its spatial assignment and
// its preferred time its list-scheduling priority.
//
// The map maintains the paper's invariants:
//
//	∀ i,t,c:  0 ≤ W[i][t][c] ≤ 1
//	∀ i:      Σ_{t,c} W[i][t][c] = 1
//
// Passes may violate the invariants mid-flight; Normalize restores them and
// the driver normalizes after every pass.
package core

import (
	"fmt"
	"math"
)

// BigConfidence is returned by Confidence when there is no runner-up
// cluster (single-cluster machines or zero runner-up weight).
const BigConfidence = 1e9

// PrefMap is the three-dimensional weight matrix W[instruction][time][cluster].
//
// Every piece of state is a single contiguous backing array — the weights,
// both marginal caches and the per-instruction bookkeeping — so the map is
// exactly four allocations however many instructions it covers, pass inner loops walk
// cache lines instead of chasing per-instruction slice headers, and Reset
// can re-shape the map for a new graph without allocating at all once the
// backing arrays have grown to the workload's high-water mark. Per-
// instruction cluster and time marginals are cached and recomputed lazily
// after mutation, so PreferredCluster and Confidence are O(1) between
// mutations of the same instruction.
//
// Each instruction also carries a time window [lo, hi]: every slot outside
// it weighs exactly 0 by definition, and its cells are undefined storage (a
// recycled map keeps whatever the last graph left there) that no operation
// reads before writing it. INITTIME narrows the window to the feasible
// start window, and no later operation can revive a slot outside it except
// by widening the window, which first writes 0 into the cells it newly
// covers. Row sweeps run over the window instead of all T slots. Skipping
// slots that weigh exactly zero changes no weight and no marginal bit:
// weights are non-negative, so every skipped term of a marginal sum is +0,
// and 0·f, 0/d and own·0+other·0 are 0 for the finite factors the sweeps
// accept. The time marginal outside the window is exactly zero too:
// ZeroTimesOutside, the one operation that narrows a window, zeroes it for
// the slots it drops, so sweeps rebuild it over the window alone.
//
// A row may also be lazy: one value over its whole window, held in its row
// state, with no cell written. Reset leaves every row lazy at 1/(T·C), and
// ZeroTimesOutside, the marginal reads and Normalize keep a lazy row lazy,
// forming each sum from the one value in exactly the order a sweep of its
// cells would add them. Any other mutation first writes the value over the
// window. So Reset, INITTIME and the normalization after it write no
// weight cell, and a row's cells are first written over its narrowed
// window only.
type PrefMap struct {
	n, T, C int
	w       []float64 // len n*T*C, W[i][t][c] at (i*T+t)*C + c

	rows       []rowState // len n
	clusterSum []float64  // len n*C, [i*C+c] = Σ_t W[i][t][c]
	timeSum    []float64  // len n*T, [i*T+t] = Σ_c W[i][t][c]
}

// rowState is one instruction's bookkeeping: its time window, with
// W[i][t][·] = 0 for every t outside it, whether its cached marginals are
// stale, and how its cells are held. A lazy row weighs val in every slot of
// its window and holds no cell. A materialized row holds its weights in its
// cells over ext, a hull of the window whose slots outside the window hold
// 0, so Blend can read it across a wider hull without writing those zeros
// again; its cells outside ext are undefined.
type rowState struct {
	win, ext window
	dirty    bool
	lazy     bool
	val      float64
}

// window is an inclusive time-slot range [lo, hi]; lo > hi means empty.
type window struct{ lo, hi int }

func (w window) empty() bool { return w.lo > w.hi }

// has reports whether slot t lies in the window.
func (w window) has(t int) bool { return w.lo <= t && t <= w.hi }

// hull returns the smallest window covering both a and b.
func hull(a, b window) window {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	return window{min(a.lo, b.lo), max(a.hi, b.hi)}
}

// NewPrefMap returns a map for n instructions, T time slots and C clusters,
// initialised uniformly (every slot weight 1/(T·C)). T and C must be
// positive; n may be zero.
func NewPrefMap(n, T, C int) *PrefMap {
	p := &PrefMap{}
	p.Reset(n, T, C)
	return p
}

// checkShape panics, naming the offending parameter, unless the map shape is
// valid: n ≥ 0 instructions, T ≥ 1 time slots, C ≥ 1 clusters.
func checkShape(n, T, C int) {
	if n < 0 {
		panic(fmt.Sprintf("core: NewPrefMap: instruction count n = %d, must be >= 0", n))
	}
	if T <= 0 {
		panic(fmt.Sprintf("core: NewPrefMap: time slots T = %d, must be > 0", T))
	}
	if C <= 0 {
		panic(fmt.Sprintf("core: NewPrefMap: clusters C = %d, must be > 0", C))
	}
}

// Reset re-shapes the map in place for n instructions, T time slots and C
// clusters and re-initialises every weight to uniform, exactly as NewPrefMap
// would. It writes only the row states: every row becomes lazy at 1/(T·C)
// over the full window, and no weight cell is written until a mutation
// needs it (see PrefMap). Backing arrays are reused when they are large
// enough, so a pooled map reaches zero steady-state allocations once it has
// seen the largest graph of its workload. The shape rules (and panics)
// match NewPrefMap.
func (p *PrefMap) Reset(n, T, C int) {
	checkShape(n, T, C)
	p.n, p.T, p.C = n, T, C
	p.w = grow(p.w, n*T*C)
	p.rows = grow(p.rows, n)
	p.clusterSum = grow(p.clusterSum, n*C)
	p.timeSum = grow(p.timeSum, n*T)
	u := 1.0 / float64(T*C)
	for i := range p.rows {
		p.rows[i] = rowState{win: p.full(), dirty: true, lazy: true, val: u}
	}
}

// full returns the window covering every time slot.
func (p *PrefMap) full() window { return window{0, p.T - 1} }

// materialize writes a lazy row's value into every cell of its window, so
// the row can be changed cell by cell.
func (p *PrefMap) materialize(i int) {
	if p.rows[i].lazy {
		p.writeLazy(i)
	}
}

// writeLazy is materialize's body, kept apart so the check inlines.
func (p *PrefMap) writeLazy(i int) {
	r := &p.rows[i]
	r.lazy, r.ext = false, r.win
	row, _ := p.span(i)
	for k := range row {
		row[k] = r.val
	}
}

// zeroExtend grows materialized instruction i's extent to its hull with w,
// writing 0 into the cells of every slot it newly covers, whose storage was
// undefined. Those slots lie outside the window, where every weight is 0.
func (p *PrefMap) zeroExtend(i int, w window) {
	r := &p.rows[i]
	e := hull(r.ext, w)
	if e == r.ext {
		return
	}
	row := p.row(i)
	if r.ext.empty() {
		clear(row[e.lo*p.C : (e.hi+1)*p.C])
	} else {
		clear(row[e.lo*p.C : r.ext.lo*p.C])
		clear(row[(r.ext.hi+1)*p.C : (e.hi+1)*p.C])
	}
	r.ext = e
}

// widen grows materialized instruction i's window to its hull with w. The
// cells of the slots it newly covers read 0, as those slots weighed before.
func (p *PrefMap) widen(i int, w window) {
	if h := hull(p.rows[i].win, w); h != p.rows[i].win {
		p.zeroExtend(i, h)
		p.rows[i].win = h
	}
}

// grow returns a slice of exactly length n, reusing s's backing array when
// it is big enough.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// N returns the instruction count.
func (p *PrefMap) N() int { return p.n }

// Times returns the number of time slots.
func (p *PrefMap) Times() int { return p.T }

// Clusters returns the number of clusters.
func (p *PrefMap) Clusters() int { return p.C }

func (p *PrefMap) idx(i, t, c int) int { return (i*p.T+t)*p.C + c }

// row returns the contiguous T*C weight block of instruction i.
func (p *PrefMap) row(i int) []float64 {
	base := i * p.T * p.C
	return p.w[base : base+p.T*p.C]
}

// span returns the weight block of instruction i's window, together with
// the window's first slot (the block's slot 0). An empty window yields an
// empty block.
func (p *PrefMap) span(i int) (block []float64, lo int) {
	w := p.rows[i].win
	if w.empty() {
		return nil, 0
	}
	base := i * p.T * p.C
	return p.w[base+w.lo*p.C : base+(w.hi+1)*p.C], w.lo
}

// At returns W[i][t][c].
func (p *PrefMap) At(i, t, c int) float64 {
	switch r := &p.rows[i]; {
	case !r.win.has(t):
		return 0
	case r.lazy:
		return r.val
	}
	return p.w[p.idx(i, t, c)]
}

// Set assigns W[i][t][c]. The value must be finite and non-negative.
func (p *PrefMap) Set(i, t, c int, v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("core: Set(%d,%d,%d) to %v", i, t, c, v))
	}
	p.materialize(i)
	p.widen(i, window{t, t})
	p.w[p.idx(i, t, c)] = v
	p.rows[i].dirty = true
}

// Mul multiplies W[i][t][c] by the non-negative factor f.
func (p *PrefMap) Mul(i, t, c int, f float64) { p.Set(i, t, c, p.At(i, t, c)*f) }

// Add adds the non-negative delta d to W[i][t][c].
func (p *PrefMap) Add(i, t, c int, d float64) { p.Set(i, t, c, p.At(i, t, c)+d) }

// MulCluster multiplies every time slot of cluster c for instruction i by f.
// A non-finite f turns the zero slots outside the window into NaN (0·Inf),
// so it widens the window to full and sweeps the whole row.
func (p *PrefMap) MulCluster(i, c int, f float64) {
	p.materialize(i)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		p.widen(i, p.full())
	}
	row, _ := p.span(i)
	for k := c; k < len(row); k += p.C {
		row[k] *= f
	}
	p.rows[i].dirty = true
}

// MulTime multiplies every cluster entry of time slot t for instruction i by f.
func (p *PrefMap) MulTime(i, t int, f float64) {
	p.materialize(i)
	p.widen(i, window{t, t})
	base := p.idx(i, t, 0)
	for c := 0; c < p.C; c++ {
		p.w[base+c] *= f
	}
	p.rows[i].dirty = true
}

// Apply rewrites every slot of instruction i through f. The returned values
// must be finite and non-negative.
func (p *PrefMap) Apply(i int, f func(t, c int, w float64) float64) {
	p.materialize(i)
	p.widen(i, p.full())
	for t := 0; t < p.T; t++ {
		base := p.idx(i, t, 0)
		for c := 0; c < p.C; c++ {
			v := f(t, c, p.w[base+c])
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("core: Apply produced %v at (%d,%d,%d)", v, i, t, c))
			}
			p.w[base+c] = v
		}
	}
	p.rows[i].dirty = true
}

// ZeroTimesOutside squashes every slot of instruction i whose time lies
// outside [lo, hi]. It is INITTIME's inner operation, equivalent to an Apply
// that returns 0 outside the window, without the closure. The instruction's
// window shrinks to its intersection with [lo, hi], which may be empty.
// It is the only operation that narrows a window, so it zeroes the dropped
// slots' time marginal (see PrefMap). A lazy row stays lazy and no weight
// cell is written: after Reset, every row is lazy, so INITTIME is n·T work,
// not n·T·C. A materialized row's dropped cells are zeroed, so they stay in
// its zero-padded extent (see rowState).
func (p *PrefMap) ZeroTimesOutside(i, lo, hi int) {
	old := p.rows[i].win
	keep := window{max(old.lo, lo), min(old.hi, hi)}
	lazy := p.rows[i].lazy
	row := p.row(i)
	ts := p.timeSum[i*p.T : (i+1)*p.T]
	for t := old.lo; t <= old.hi; t++ {
		if keep.has(t) {
			continue
		}
		if !lazy {
			clear(row[t*p.C : (t+1)*p.C])
		}
		ts[t] = 0
	}
	p.rows[i].win = keep
	p.rows[i].dirty = true
}

// AddPerClusterMasked adds add[c] to every non-zero slot of instruction i.
// Zero slots stay zero — they encode feasibility squashes (INITTIME) that
// additive noise must respect. add must hold C finite, non-negative values.
func (p *PrefMap) AddPerClusterMasked(i int, add []float64) {
	p.checkPerCluster("AddPerClusterMasked", i, add)
	p.materialize(i)
	row, _ := p.span(i)
	for base := 0; base < len(row); base += p.C {
		for c := 0; c < p.C; c++ {
			if w := row[base+c]; w != 0 {
				row[base+c] = w + add[c]
			}
		}
	}
	p.rows[i].dirty = true
}

// MulPerCluster multiplies every slot of instruction i on cluster c by f[c].
// f must hold C finite, non-negative factors.
func (p *PrefMap) MulPerCluster(i int, f []float64) {
	p.checkPerCluster("MulPerCluster", i, f)
	p.materialize(i)
	row, _ := p.span(i)
	mulCols(row, f)
	p.rows[i].dirty = true
}

// DivPerCluster divides every slot of instruction i on cluster c by d[c].
// d must hold C finite, strictly positive divisors. Division (rather than
// multiplication by a precomputed reciprocal) keeps results bit-identical to
// the equivalent per-slot Apply.
func (p *PrefMap) DivPerCluster(i int, d []float64) {
	if len(d) != p.C {
		panic(fmt.Sprintf("core: DivPerCluster(%d): %d divisors for %d clusters", i, len(d), p.C))
	}
	for c, v := range d {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("core: DivPerCluster(%d): divisor %v for cluster %d", i, v, c))
		}
	}
	p.materialize(i)
	row, _ := p.span(i)
	divCols(row, d)
	p.rows[i].dirty = true
}

func (p *PrefMap) checkPerCluster(op string, i int, f []float64) {
	if len(f) != p.C {
		panic(fmt.Sprintf("core: %s(%d): %d values for %d clusters", op, i, len(f), p.C))
	}
	for c, v := range f {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("core: %s(%d): value %v for cluster %d", op, i, v, c))
		}
	}
}

// Blend mixes instruction j's distribution into instruction i's:
// W[i] ← own·W[i] + (1-own)·W[j], the paper's linear-combination operation
// with n = 2. own must lie in [0,1]. Instruction i's window becomes the
// hull of both windows.
//
// Both rows are materialized and zero-extended over the hull first, so one
// blend sweeps it and every cell rounds as own·w + other·0, own·0 + other·w
// or own·0 + other·0 wherever a window does not cover it, exactly as the
// blend of both full rows would. Zero-extending j writes only zeros outside
// its window, where it weighs 0, and is done once per hull: a later Blend
// from the same row reuses the zeros.
func (p *PrefMap) Blend(i, j int, own float64) {
	if own < 0 || own > 1 {
		panic(fmt.Sprintf("core: Blend weight %v", own))
	}
	p.materialize(i)
	p.materialize(j)
	h := hull(p.rows[i].win, p.rows[j].win)
	p.rows[i].dirty = true
	if h.empty() {
		return
	}
	p.zeroExtend(j, h)
	p.widen(i, h)
	blend(p.row(i)[h.lo*p.C:(h.hi+1)*p.C], p.row(j)[h.lo*p.C:], own, 1-own)
}

// NonzeroSlotsPerCluster counts, per cluster, how many of instruction i's
// time slots carry positive weight, writing the counts into dst (which must
// hold C values). NOISE uses it to spread each cluster's draw over exactly
// the feasible slots.
func (p *PrefMap) NonzeroSlotsPerCluster(i int, dst []int) {
	if len(dst) != p.C {
		panic(fmt.Sprintf("core: NonzeroSlotsPerCluster(%d): dst holds %d of %d clusters", i, len(dst), p.C))
	}
	clear(dst)
	if r := &p.rows[i]; r.lazy {
		if r.val > 0 {
			for c := range dst {
				dst[c] = max(0, r.win.hi-r.win.lo+1)
			}
		}
		return
	}
	row, _ := p.span(i)
	for base := 0; base < len(row); base += p.C {
		for c := 0; c < p.C; c++ {
			if row[base+c] > 0 {
				dst[c]++
			}
		}
	}
}

// refresh brings instruction i's cached marginals up to date.
func (p *PrefMap) refresh(i int) {
	if p.rows[i].dirty {
		p.recompute(i)
	}
}

// recompute rebuilds instruction i's marginals and marks the row clean.
func (p *PrefMap) recompute(i int) {
	if r := &p.rows[i]; r.lazy {
		p.lazyMarginals(i, r.val)
		r.dirty = false
		return
	}
	cs, ts, row := p.marginals(i)
	colSums(cs, row)
	for t := range ts {
		sum := 0.0
		for _, w := range row[t*p.C : (t+1)*p.C] {
			sum += w
		}
		ts[t] = sum
	}
	p.rows[i].dirty = false
}

// marginals zeroes instruction i's cluster marginal and returns it, the
// time marginal over the window's slots and the window's weight block,
// ready for a sweep that rebuilds both marginals. The time marginal outside
// the window is already zero (see PrefMap).
func (p *PrefMap) marginals(i int) (cs, ts, row []float64) {
	cs = p.clusterSum[i*p.C : (i+1)*p.C]
	clear(cs)
	row, lo := p.span(i)
	ts = p.timeSum[i*p.T+lo : i*p.T+lo+len(row)/p.C]
	return cs, ts, row
}

// lazySums returns the marginals of a row that weighs v in every slot of
// its window, with exactly the sums a sweep of its cells forms: a cluster
// adds the window's slots in slot order, and a slot adds its clusters in
// cluster order, each from +0. A scalar loop of window width plus C adds.
func (p *PrefMap) lazySums(i int, v float64) (perCluster, perSlot float64) {
	w := p.rows[i].win
	for t := w.lo; t <= w.hi; t++ {
		perCluster += v
	}
	for c := 0; c < p.C; c++ {
		perSlot += v
	}
	return perCluster, perSlot
}

// lazyMarginals rebuilds instruction i's marginals as those of a row that
// weighs v in every slot of its window (see lazySums).
func (p *PrefMap) lazyMarginals(i int, v float64) {
	perCluster, perSlot := p.lazySums(i, v)
	cs := p.clusterSum[i*p.C : (i+1)*p.C]
	for c := range cs {
		cs[c] = perCluster
	}
	w := p.rows[i].win
	for t := w.lo; t <= w.hi; t++ {
		p.timeSum[i*p.T+t] = perSlot
	}
}

// ClusterWeight returns Σ_t W[i][t][c].
func (p *PrefMap) ClusterWeight(i, c int) float64 {
	p.refresh(i)
	return p.clusterSum[i*p.C+c]
}

// TimeWeight returns Σ_c W[i][t][c].
func (p *PrefMap) TimeWeight(i, t int) float64 {
	p.refresh(i)
	return p.timeSum[i*p.T+t]
}

// Total returns Σ_{t,c} W[i][t][c].
func (p *PrefMap) Total(i int) float64 {
	p.refresh(i)
	return p.sumClusters(i)
}

// sumClusters adds instruction i's cluster marginal in cluster order.
func (p *PrefMap) sumClusters(i int) float64 {
	sum := 0.0
	for _, v := range p.clusterSum[i*p.C : (i+1)*p.C] {
		sum += v
	}
	return sum
}

// ClusterWeightsInto copies instruction i's cluster marginal into dst, which
// must hold C values, and returns it.
func (p *PrefMap) ClusterWeightsInto(i int, dst []float64) []float64 {
	if len(dst) != p.C {
		panic(fmt.Sprintf("core: ClusterWeightsInto(%d): dst holds %d of %d clusters", i, len(dst), p.C))
	}
	p.refresh(i)
	copy(dst, p.clusterSum[i*p.C:(i+1)*p.C])
	return dst
}

// PreferredCluster returns the cluster maximising the cluster marginal of
// instruction i (lowest index wins ties).
func (p *PrefMap) PreferredCluster(i int) int {
	p.refresh(i)
	cs := p.clusterSum[i*p.C : (i+1)*p.C]
	best, bestW := 0, math.Inf(-1)
	for c, w := range cs {
		if w > bestW {
			best, bestW = c, w
		}
	}
	return best
}

// RunnerUpCluster returns the cluster with the second-largest marginal, or
// -1 on single-cluster maps.
func (p *PrefMap) RunnerUpCluster(i int) int {
	if p.C < 2 {
		return -1
	}
	p.refresh(i)
	pref := p.PreferredCluster(i)
	cs := p.clusterSum[i*p.C : (i+1)*p.C]
	best, bestW := -1, math.Inf(-1)
	for c, w := range cs {
		if c == pref {
			continue
		}
		if w > bestW {
			best, bestW = c, w
		}
	}
	return best
}

// PreferredTime returns the time slot maximising the time marginal of
// instruction i (earliest wins ties). Every slot outside the window has a
// marginal of exactly 0, so a positive maximum lies in the window and only
// the window is scanned. A window with no positive marginal, empty or all
// zero, falls back to scanning every slot, which answers slot 0 for a row
// whose marginals are all zero.
func (p *PrefMap) PreferredTime(i int) int {
	p.refresh(i)
	ts := p.timeSum[i*p.T : (i+1)*p.T]
	if w := p.rows[i].win; !w.empty() {
		if best, bestW := argmax(ts[w.lo : w.hi+1]); bestW > 0 {
			return w.lo + best
		}
	}
	best, _ := argmax(ts)
	return best
}

// argmax returns the index of the first largest value of vs and the value,
// or 0 and -Inf when no value compares above -Inf (vs empty or all NaN).
func argmax(vs []float64) (int, float64) {
	best, bestW := 0, math.Inf(-1)
	for k, w := range vs {
		if w > bestW {
			best, bestW = k, w
		}
	}
	return best, bestW
}

// Confidence returns the paper's confidence measure for instruction i's
// spatial assignment: the ratio of the preferred cluster's marginal to the
// runner-up's. It returns BigConfidence when no runner-up weight exists:
// single-cluster maps, and maps whose runner-up marginal is zero while the
// preferred marginal is positive. A map whose preferred marginal is also
// zero (the whole row squashed) reports 1, not BigConfidence.
func (p *PrefMap) Confidence(i int) float64 {
	ru := p.RunnerUpCluster(i)
	if ru < 0 {
		return BigConfidence
	}
	top := p.ClusterWeight(i, p.PreferredCluster(i))
	run := p.ClusterWeight(i, ru)
	if run <= 0 {
		if top <= 0 {
			return 1
		}
		return BigConfidence
	}
	return top / run
}

// Normalize rescales instruction i so its weights sum to one. If the total
// is degenerate — every weight zero because a pass squashed the whole row,
// or non-finite because repeated multiplicative boosts overflowed — the row
// resets to uniform, which keeps the map well-defined without privileging
// any slot (and guarantees Normalize never emits NaN).
//
// The total is Total's value, bit for bit, but a dirty row pays one read
// sweep for it rather than a full refresh: the per-cluster sums are formed
// in refresh's order, in the cluster marginal the rescale clears and
// rebuilds anyway, and no time marginal is written. A clean row whose
// cached total is exactly 1 is returned as is: rescaling it by 1/1 leaves
// every weight unchanged and rebuilds both caches from the same values in
// the same order. A clean row with any other total is still rescaled.
//
// A lazy row stays lazy: its one value is rescaled and its marginals are
// formed from that value (see lazySums), so it writes no weight cell. The
// uniform reset makes the row lazy at 1/(T·C) over the full window.
func (p *PrefMap) Normalize(i int) {
	var total float64
	if p.rows[i].dirty {
		total = p.windowTotal(i)
	} else if total = p.sumClusters(i); total == 1 {
		return
	}
	// A subnormal total is degenerate too: its reciprocal overflows to +Inf
	// and would turn zero slots into 0·Inf = NaN during the rescale.
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) || math.IsInf(1/total, 0) {
		u := 1.0 / float64(p.T*p.C)
		p.rows[i] = rowState{win: p.full(), lazy: true, val: u}
		p.lazyMarginals(i, u)
		return
	}
	if r := &p.rows[i]; r.lazy {
		r.val = float64(r.val * (1 / total))
		r.dirty = false
		p.lazyMarginals(i, r.val)
		return
	}
	// The rescale also rebuilds the marginal caches in the same sweep —
	// accumulating exactly the values it stores, in refresh's loop order,
	// so the cached marginals are bit-identical to a recompute — and
	// leaves the instruction clean. The driver reads preferred clusters
	// after every normalization; the fusion makes those reads cache hits.
	cs, ts, row := p.marginals(i)
	rescale(cs, ts, row, 1/total)
	p.rows[i].dirty = false
}

// windowTotal returns Σ_{t,c} W[i][t][c] with exactly refresh's and Total's
// arithmetic — per-cluster sums in slot order over the window, then added in
// cluster order — accumulating in the cluster marginal, which it leaves
// holding a fresh value while the row stays dirty.
func (p *PrefMap) windowTotal(i int) float64 {
	cs := p.clusterSum[i*p.C : (i+1)*p.C]
	if r := &p.rows[i]; r.lazy {
		perCluster, _ := p.lazySums(i, r.val)
		for c := range cs {
			cs[c] = perCluster
		}
	} else {
		clear(cs)
		row, _ := p.span(i)
		colSums(cs, row)
	}
	return p.sumClusters(i)
}

// NormalizeAll normalizes every instruction.
func (p *PrefMap) NormalizeAll() {
	for i := 0; i < p.n; i++ {
		p.Normalize(i)
	}
}

// CheckInvariants verifies the paper's invariants within tolerance eps,
// returning the first violation. Use after NormalizeAll. It reads every
// weight through At, in slot order, and leaves out only the slots outside
// the window, whose +0 terms change no bit of the total.
func (p *PrefMap) CheckInvariants(eps float64) error {
	for i := 0; i < p.n; i++ {
		total := 0.0
		win := p.rows[i].win
		for t := win.lo; t <= win.hi; t++ {
			for c := 0; c < p.C; c++ {
				w := p.At(i, t, c)
				if w < 0 || w > 1+eps || math.IsNaN(w) {
					return fmt.Errorf("core: W[%d][%d][%d] = %v out of [0,1]", i, t, c, w)
				}
				total += w
			}
		}
		if math.Abs(total-1) > eps {
			return fmt.Errorf("core: instruction %d weights sum to %v", i, total)
		}
	}
	return nil
}

// Clone returns an independent deep copy of the map. It copies each row's
// window cells (or its lazy value) and rebuilds the marginals on demand.
func (p *PrefMap) Clone() *PrefMap {
	q := NewPrefMap(p.n, p.T, p.C)
	for i, r := range p.rows {
		q.rows[i] = rowState{win: r.win, ext: r.win, dirty: true, lazy: r.lazy, val: r.val}
		if !r.lazy {
			cells, lo := p.span(i)
			copy(q.row(i)[lo*p.C:], cells)
		}
	}
	return q
}

// PreferredClustersInto fills dst, which must hold N values, with every
// instruction's preferred cluster and returns it.
func (p *PrefMap) PreferredClustersInto(dst []int) []int {
	if len(dst) != p.n {
		panic(fmt.Sprintf("core: PreferredClustersInto: dst holds %d of %d instructions", len(dst), p.n))
	}
	for i := range dst {
		dst[i] = p.PreferredCluster(i)
	}
	return dst
}

// PreferredTimes returns every instruction's preferred time slot.
func (p *PrefMap) PreferredTimes() []int {
	return p.PreferredTimesInto(make([]int, p.n))
}

// PreferredTimesInto fills dst, which must hold N values, with every
// instruction's preferred time slot and returns it.
func (p *PrefMap) PreferredTimesInto(dst []int) []int {
	if len(dst) != p.n {
		panic(fmt.Sprintf("core: PreferredTimesInto: dst holds %d of %d instructions", len(dst), p.n))
	}
	for i := range dst {
		dst[i] = p.PreferredTime(i)
	}
	return dst
}
