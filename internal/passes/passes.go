// Package passes implements the paper's collection of convergent-scheduling
// heuristics (Section 4) and the published pass sequences for Raw and the
// clustered VLIW (Table 1).
//
// Each pass addresses one constraint and communicates with the others only
// through the preference map. Parameters default to the paper's published
// constants (PLACE ×100, PATH ×3, FIRST ×1.2, EMPHCP ×1.2, LEVEL confidence
// threshold 2.0, LEVEL applied every four levels on Raw); where the paper
// leaves a constant unstated the field documents our choice.
//
// Every pass draws its working buffers from the state's scratch arena
// (State.Scratch) instead of allocating: once the arena has grown to a
// workload's high-water mark, a full pass-sequence run performs no heap
// allocations. The allocation-regression tests pin this property; the
// differential harness proves the scratch-based rewrites produce bit-for-bit
// the same schedules as the original allocating implementations.
package passes

import (
	"math"
	"slices"

	"repro/internal/core"
)

// InitTime is INITTIME: squash to zero every time slot outside an
// instruction's feasible window [EarliestStart, LatestStart]. Instructions
// on the critical path end up with exactly one feasible slot.
type InitTime struct{}

// Name implements core.Pass.
func (InitTime) Name() string { return "INITTIME" }

// Run implements core.Pass.
func (InitTime) Run(s *core.State) {
	for i := 0; i < s.W.N(); i++ {
		s.W.ZeroTimesOutside(i, s.EarliestStart[i], s.LatestStart[i])
	}
}

// Noise is NOISE: add randomness to every weight to break symmetry so later
// passes can spread instructions for parallelism. The paper's formula adds
// rand()/RAND_MAX — a uniform draw in [0,1] — to each raw weight; since the
// normalized weights are on the order of 1/(T·C), the noise deliberately
// dwarfs the prior and gives each instruction an essentially random initial
// cluster preference, which the deterministic passes then sharpen. This is
// what spreads work across clusters on machines whose sequence has no LOAD
// pass (the clustered VLIW).
type Noise struct {
	// Amp scales the added noise; 0 means the paper's 1.0.
	Amp float64
}

// Name implements core.Pass.
func (Noise) Name() string { return "NOISE" }

// Run implements core.Pass.
func (p Noise) Run(s *core.State) {
	amp := p.Amp
	if amp == 0 {
		amp = 1
	}
	// One draw per (instruction, cluster), spread as constant total mass
	// over that cluster's feasible slots. Independent per-slot draws
	// would leave instructions with narrow feasible windows (the near-
	// critical ones) almost noise-free, and a mild deterministic bias
	// like FIRST would then override the noise for all of them at once —
	// the exact symmetry the pass exists to break. Figure 9 of the paper
	// shows FIRST changing few preferences after NOISE, which requires
	// the cluster marginals themselves to be noisy for every
	// instruction. With amp = 1 the noise marginal is uniform in [0,1]
	// against a normalized prior marginal of 1/C, reproducing the
	// paper's noise-dominates-prior regime.
	C := s.W.Clusters()
	sc := s.Scratch()
	feasible := sc.Ints(C)
	draw := sc.Floats(C)
	for i := 0; i < s.W.N(); i++ {
		s.W.NonzeroSlotsPerCluster(i, feasible)
		// Zero slots encode feasibility squashes from INITTIME, which
		// the masked add respects; draw order must match cluster order
		// so a recycled state consumes the random stream exactly as a
		// fresh one.
		for c := range draw {
			draw[c] = 0
			if feasible[c] > 0 {
				draw[c] = s.Rand.Float64() * amp / float64(feasible[c])
			}
		}
		s.W.AddPerClusterMasked(i, draw)
	}
}

// Place is PLACE: boost, strongly, every preplaced instruction's weight on
// its home cluster. The paper multiplies by 100 because preplacement is a
// correctness constraint.
type Place struct {
	// Factor defaults to the paper's 100.
	Factor float64
}

// Name implements core.Pass.
func (Place) Name() string { return "PLACE" }

// Run implements core.Pass.
func (p Place) Run(s *core.State) {
	f := p.Factor
	if f == 0 {
		f = 100
	}
	for _, i := range s.Graph.Preplaced() {
		s.W.MulCluster(i, s.Graph.Instrs[i].Home, f)
	}
}

// First is FIRST: bias every instruction toward the first cluster, where the
// Chorus VLIW invariant guarantees all live-in data is available at region
// entry.
type First struct {
	// Factor defaults to the paper's 1.2.
	Factor float64
}

// Name implements core.Pass.
func (First) Name() string { return "FIRST" }

// Run implements core.Pass.
func (p First) Run(s *core.State) {
	f := p.Factor
	if f == 0 {
		f = 1.2
	}
	for i := 0; i < s.W.N(); i++ {
		s.W.MulCluster(i, 0, f)
	}
}

// Path is PATH, critical-path strengthening: keep the instructions of each
// critical path together on one cluster. If a stretch of a path is biased
// toward some cluster (for example because it contains a preplaced
// instruction), that stretch moves there; unbiased stretches go to the least
// loaded cluster, which spreads parallel near-critical chains across the
// machine. Stretches are split at preplaced instructions with different
// homes. After strengthening a path the pass repeats on the remaining
// instructions, so a graph of many equally-long chains (an unrolled
// reduction, for instance) has every chain placed, not just the single
// longest one.
type Path struct {
	// Factor defaults to the paper's 3.
	Factor float64
	// BiasRatio is how much stronger than uniform a segment's average
	// cluster marginal must be to count as "bias for a particular
	// cluster" (default 1.5).
	BiasRatio float64
	// MinFraction stops the repetition once the longest remaining path
	// is shorter than this fraction of the critical path (default 0.5:
	// only near-critical chains are strengthened; everything shorter has
	// slack that COMM and the load-balancing passes handle better).
	MinFraction float64
	// MaxPaths caps the number of strengthened paths (default
	// 8 × clusters).
	MaxPaths int
}

// Name implements core.Pass.
func (Path) Name() string { return "PATH" }

// Run implements core.Pass.
func (p Path) Run(s *core.State) {
	f := p.Factor
	if f == 0 {
		f = 3
	}
	ratio := p.BiasRatio
	if ratio == 0 {
		ratio = 1.5
	}
	minFrac := p.MinFraction
	if minFrac == 0 {
		minFrac = 0.5
	}
	maxPaths := p.MaxPaths
	if maxPaths == 0 {
		maxPaths = 8 * s.W.Clusters()
	}
	cpl := s.CPL
	n := s.Graph.Len()
	sc := s.Scratch()
	marked := sc.Bools(n)
	loads := s.LoadsInto(sc.Floats(s.W.Clusters()))
	lat := sc.Ints(n)
	for i, in := range s.Graph.Instrs {
		lat[i] = s.Machine.OpLatency(in.Op)
	}
	// Work buffers reused across path iterations. down/next carry over
	// from one search to the next, which recomputes only what dirty
	// flags; onPath is cleared selectively after each iteration (its set
	// bits are exactly the absorbed path's members).
	down := sc.Ints(n)
	next := sc.Ints(n)
	dirty := sc.Bools(n)
	for i := range dirty {
		dirty[i] = true
	}
	pathBuf := sc.IntsCap(n)
	onPath := sc.Bools(n)
	fringeBuf := sc.IntsCap(n)
	cutBuf := sc.IntsCap(n + 1)
	sums := sc.Floats(s.W.Clusters())
	for iter := 0; iter < maxPaths; iter++ {
		path := longestUnmarkedPath(s, lat, marked, dirty, down, next, pathBuf)
		if len(path) == 0 || float64(pathLength(lat, path)) < minFrac*float64(cpl) {
			return
		}
		path = absorbFringe(s, path, marked, onPath, fringeBuf)
		cuts := splitAtHomes(s, path, cutBuf)
		start := 0
		for k := 0; k <= len(cuts); k++ {
			end := len(path)
			if k < len(cuts) {
				end = cuts[k]
			}
			seg := path[start:end]
			start = end
			cc := p.chooseCluster(s, seg, ratio, loads, sums)
			for _, i := range seg {
				s.W.MulCluster(i, cc, f)
				// A chain member whose prior weights strongly
				// favour another cluster (for example after
				// PLACEPROP's sharp distance division) would
				// shrug off a fixed boost and split the chain,
				// paying communication latency on a critical
				// dependence. The interface lets a pass be as
				// assertive as its constraint warrants (paper
				// Section 2, feature 2), so PATH tops up the
				// boost until the path's cluster actually
				// leads.
				if s.Graph.Instrs[i].Preplaced() {
					continue
				}
				top := 0.0
				for c := 0; c < s.W.Clusters(); c++ {
					if c != cc && s.W.ClusterWeight(i, c) > top {
						top = s.W.ClusterWeight(i, c)
					}
				}
				if cur := s.W.ClusterWeight(i, cc); cur < 1.5*top && cur > 0 {
					s.W.MulCluster(i, cc, 1.5*top/cur)
				}
			}
			loads[cc] += float64(len(seg))
		}
		for _, i := range path {
			marked[i] = true
			dirty[i] = true
			onPath[i] = false
		}
	}
}

// absorbFringe extends a path with its private operand fringe: unmarked,
// non-preplaced, non-constant operands of path members whose consumers all
// lie on the path. Such an operand feeds the critical chain and nothing
// else, so splitting it off can only add communication latency to the
// chain. Fringe instructions are inserted before their consumer so
// splitAtHomes still sees a coherent order. One level of fringe is
// absorbed, which covers the common shape (a multiply feeding each step of
// a recurrence).
//
// onPath must be all-false on entry; on return its set bits are exactly the
// returned path's members (the caller clears them). out provides the backing
// for the returned path.
func absorbFringe(s *core.State, path []int, marked, onPath []bool, out []int) []int {
	for _, i := range path {
		onPath[i] = true
	}
	out = out[:0]
	for _, i := range path {
		for _, p := range s.Graph.Preds(i) {
			in := s.Graph.Instrs[p]
			if onPath[p] || marked[p] || in.Preplaced() || in.Op.IsConst() {
				continue
			}
			private := true
			for _, sc := range s.Graph.Succs(p) {
				if !onPath[sc] {
					private = false
					break
				}
			}
			if private {
				onPath[p] = true
				out = append(out, p)
			}
		}
		out = append(out, i)
	}
	return out
}

// pathLength sums the latencies lat along a path.
func pathLength(lat, path []int) int {
	total := 0
	for _, i := range path {
		total += lat[i]
	}
	return total
}

// splitAtHomes cuts a path at preplaced instructions with conflicting homes.
// It returns the cut positions appended to cuts: segment k runs from the
// previous cut (or 0) to cuts[k], and the final segment to len(cp).
func splitAtHomes(s *core.State, cp []int, cuts []int) []int {
	cuts = cuts[:0]
	curHome := -1
	start := 0
	for k, i := range cp {
		h := s.Graph.Instrs[i].Home
		if h >= 0 && curHome >= 0 && h != curHome && k > start {
			cuts = append(cuts, k)
			start = k
			curHome = -1
		}
		if h >= 0 {
			curHome = h
		}
	}
	return cuts
}

// longestUnmarkedPath finds the longest dependence chain consisting purely
// of unmarked instructions, under the per-instruction latencies lat.
// Returns nil when all instructions are marked. pathBuf provides the
// backing for the returned path.
//
// down[i] is the length of the longest unmarked chain starting at i (0 once
// i is marked) and next[i] its second member (-1 at its end). Both carry
// over from the previous call: only instructions flagged in dirty (the
// caller flags those it has just marked; the first call needs every flag
// set) are recomputed, and one whose down changes flags its predecessors.
// IDs are topological, so one descending-ID sweep sees every successor
// final before its predecessors. dirty is all false on return.
func longestUnmarkedPath(s *core.State, lat []int, marked, dirty []bool, down, next, pathBuf []int) []int {
	g := s.Graph
	best := -1
	for i := len(down) - 1; i >= 0; i-- {
		if dirty[i] {
			dirty[i] = false
			d, nx := 0, -1
			if !marked[i] {
				d = lat[i]
				for _, sc := range g.Succs(i) {
					if l := lat[i] + down[sc]; !marked[sc] && l > d {
						d, nx = l, sc
					}
				}
			}
			if d != down[i] {
				for _, p := range g.Preds(i) {
					dirty[p] = true
				}
			}
			down[i], next[i] = d, nx
		}
		if !marked[i] && (best < 0 || down[i] > down[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	path := pathBuf[:0]
	for cur := best; cur >= 0; cur = next[cur] {
		path = append(path, cur)
	}
	return path
}

// chooseCluster picks the segment's cluster; sums must hold Clusters values
// and is used as scratch.
func (p Path) chooseCluster(s *core.State, seg []int, ratio float64, loads, sums []float64) int {
	// A preplaced member pins the segment.
	for _, i := range seg {
		if h := s.Graph.Instrs[i].Home; h >= 0 {
			return h
		}
	}
	// Otherwise look for an existing bias in the segment's weights.
	C := s.W.Clusters()
	for c := range sums {
		sums[c] = 0
	}
	for _, i := range seg {
		for c := 0; c < C; c++ {
			sums[c] += s.W.ClusterWeight(i, c)
		}
	}
	best, second := 0, -1
	for c := 1; c < C; c++ {
		if sums[c] > sums[best] {
			second = best
			best = c
		} else if second < 0 || sums[c] > sums[second] {
			second = c
		}
	}
	if second >= 0 && sums[second] > 0 && sums[best]/sums[second] >= ratio {
		return best
	}
	if second < 0 { // single cluster
		return best
	}
	// No clear bias: least loaded cluster.
	least := 0
	for c := 1; c < C; c++ {
		if loads[c] < loads[least] {
			least = c
		}
	}
	return least
}

// Comm is COMM, communication minimization: skew each instruction toward
// the clusters where its dependence-graph neighbours' weight mass sits, by
// multiplying each cluster entry by the neighbours' summed marginal there.
type Comm struct {
	// IncludeGrand also counts distance-two neighbours (grandparents and
	// grandchildren) at half weight, the variant the paper usually runs
	// together with COMM.
	IncludeGrand bool
	// Floor keeps a fraction of the original weight so an instruction
	// with isolated neighbours is not zeroed (default 0.05).
	Floor float64
	// SlackWeight scales each neighbour's pull by the criticality of the
	// connecting edge: a zero-slack edge (splitting it stretches the
	// critical path) pulls with weight 1+SlackWeight, a fully slack edge
	// with weight 1. Zero disables the scaling.
	SlackWeight float64
}

// Name implements core.Pass.
func (p Comm) Name() string {
	if p.IncludeGrand {
		return "COMM2"
	}
	return "COMM"
}

// edgeCrit returns the pull multiplier between two directly dependent
// instructions: near-critical edges (little scheduling slack between the
// pair) matter more, because splitting them across clusters adds
// communication latency straight onto the critical path.
func (p Comm) edgeCrit(s *core.State, a, b int) float64 {
	if p.SlackWeight == 0 {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	lat := s.Machine.OpLatency(s.Graph.Instrs[a].Op)
	slack := s.LatestStart[b] - (s.EarliestStart[a] + lat)
	if slack < 0 {
		slack = 0
	}
	return 1 + p.SlackWeight/float64(1+slack)
}

// Run implements core.Pass.
func (p Comm) Run(s *core.State) {
	floor := p.Floor
	if floor == 0 {
		floor = 0.05
	}
	n, C := s.W.N(), s.W.Clusters()
	sc := s.Scratch()
	// Snapshot the marginals so the pass reads a consistent picture
	// while it rewrites weights. marg[i*C+c] is instruction i's mass on
	// cluster c.
	marg := sc.Floats(n * C)
	for i := 0; i < n; i++ {
		s.W.ClusterWeightsInto(i, marg[i*C:(i+1)*C])
	}
	attract := sc.Floats(C)
	factor := sc.Floats(C)
	// seen is a generation-marked visited set for the distance-two walk:
	// seen[x] == gen means x was counted for the current instruction.
	var seen []int
	gen := 0
	if p.IncludeGrand {
		seen = sc.Ints(n)
	}
	for i := 0; i < n; i++ {
		for c := range attract {
			attract[c] = 0
		}
		for _, nb := range s.Graph.Neighbors(i) {
			crit := p.edgeCrit(s, i, nb)
			row := marg[nb*C : (nb+1)*C]
			for c := 0; c < C; c++ {
				attract[c] += crit * row[c]
			}
		}
		if p.IncludeGrand {
			gen++
			seen[i] = gen
			for _, nb := range s.Graph.Neighbors(i) {
				seen[nb] = gen
			}
			for _, nb := range s.Graph.Neighbors(i) {
				for _, nb2 := range s.Graph.Neighbors(nb) {
					if seen[nb2] == gen {
						continue
					}
					seen[nb2] = gen
					row := marg[nb2*C : (nb2+1)*C]
					for c := 0; c < C; c++ {
						attract[c] += 0.5 * row[c]
					}
				}
			}
		}
		total := 0.0
		for _, a := range attract {
			total += a
		}
		if total == 0 {
			continue
		}
		for c := 0; c < C; c++ {
			factor[c] = floor + attract[c]/total
		}
		s.W.MulPerCluster(i, factor)
	}
}

// PlaceProp is PLACEPROP, preplacement propagation: divide each
// non-preplaced instruction's weight on cluster c by its dependence-graph
// distance to the closest preplaced instruction homed on c, so instructions
// gravitate toward the homes of nearby preplaced neighbours.
type PlaceProp struct{}

// Name implements core.Pass.
func (PlaceProp) Name() string { return "PLACEPROP" }

// Run implements core.Pass.
func (PlaceProp) Run(s *core.State) {
	n, C := s.W.N(), s.W.Clusters()
	pp := s.Graph.Preplaced()
	if len(pp) == 0 {
		return
	}
	// Multi-source BFS per cluster: dist[c*n+i] = hops from i to the
	// nearest preplaced instruction homed on c.
	const unreachable = math.MaxInt32
	sc := s.Scratch()
	dist := sc.Ints(C * n)
	for k := range dist {
		dist[k] = unreachable
	}
	queue := sc.IntsCap(n)
	for c := 0; c < C; c++ {
		dc := dist[c*n : (c+1)*n]
		queue = queue[:0]
		for _, i := range pp {
			if s.Graph.Instrs[i].Home == c {
				dc[i] = 0
				queue = append(queue, i)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, nb := range s.Graph.Neighbors(cur) {
				if dc[nb] > dc[cur]+1 {
					dc[nb] = dc[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
	// The divisor for an unreachable cluster: one beyond the largest
	// finite distance, so clusters with no preplaced instructions are
	// maximally unattractive but not zeroed.
	maxFinite := 1
	for _, d := range dist {
		if d != unreachable && d > maxFinite {
			maxFinite = d
		}
	}
	div := sc.Floats(C)
	for i := 0; i < n; i++ {
		if s.Graph.Instrs[i].Preplaced() {
			continue
		}
		for c := 0; c < C; c++ {
			d := dist[c*n+i]
			if d == unreachable {
				d = maxFinite + 1
			}
			if d < 1 {
				d = 1
			}
			div[c] = float64(d)
		}
		s.W.DivPerCluster(i, div)
	}
}

// Load is LOAD, load balancing: divide each weight by the current total
// load of its cluster so underused clusters become relatively more
// attractive.
type Load struct{}

// Name implements core.Pass.
func (Load) Name() string { return "LOAD" }

// Run implements core.Pass.
func (Load) Run(s *core.State) {
	loads := s.LoadsInto(s.Scratch().Floats(s.W.Clusters()))
	// Guard against an empty cluster making the division degenerate.
	const eps = 1e-3
	for c := range loads {
		if loads[c] < eps {
			loads[c] = eps
		}
	}
	for i := 0; i < s.W.N(); i++ {
		s.W.DivPerCluster(i, loads)
	}
}

// EmphCP is EMPHCP: emphasize each instruction's dependence level as its
// likely issue time, helping the temporal preferences converge. We use the
// machine-latency earliest start, the cycle the instruction would issue on
// an infinite machine, which is what the paper's "level" approximates.
type EmphCP struct {
	// Factor defaults to the paper's 1.2.
	Factor float64
}

// Name implements core.Pass.
func (EmphCP) Name() string { return "EMPHCP" }

// Run implements core.Pass.
func (p EmphCP) Run(s *core.State) {
	f := p.Factor
	if f == 0 {
		f = 1.2
	}
	for i := 0; i < s.W.N(); i++ {
		t := s.EarliestStart[i]
		if t >= s.W.Times() {
			t = s.W.Times() - 1
		}
		s.W.MulTime(i, t, f)
	}
}

// PathProp is PATHPROP: pick instructions whose spatial assignment is
// confident and diffuse their distributions along chains of less-confident
// successors (and predecessors), blending 50/50 as the paper specifies.
type PathProp struct {
	// Threshold is the minimum confidence for an instruction to act as a
	// propagation source (default 2).
	Threshold float64
}

// Name implements core.Pass.
func (PathProp) Name() string { return "PATHPROP" }

// Run implements core.Pass.
func (p PathProp) Run(s *core.State) {
	th := p.Threshold
	if th == 0 {
		th = 2
	}
	n := s.W.N()
	sc := s.Scratch()
	conf := sc.Floats(n)
	for i := 0; i < n; i++ {
		conf[i] = s.W.Confidence(i)
	}
	// visited is generation-marked: visited[x] == gen means x was reached
	// during the current directional walk.
	visited := sc.Ints(n)
	gen := 0
	for ih := 0; ih < n; ih++ {
		if conf[ih] < th {
			continue
		}
		// Preplaced instructions are trivially confident (PLACE gives
		// them ~100× mass) and their influence already reaches
		// neighbours through PLACE and PLACEPROP; letting them also
		// blend 50/50 along paths would bulldoze decisions other
		// passes just made (chains deliberately kept together by
		// PATH, for instance).
		if s.Graph.Instrs[ih].Preplaced() {
			continue
		}
		gen = pathPropDir(s, conf, visited, gen, ih, true)
		gen = pathPropDir(s, conf, visited, gen, ih, false)
	}
}

// pathPropDir walks from ih along successors (succs true) or predecessors,
// blending each step's least-confident unvisited neighbour toward ih. It
// returns the updated visited-set generation.
func pathPropDir(s *core.State, conf []float64, visited []int, gen, ih int, succs bool) int {
	gen++
	visited[ih] = gen
	cur := ih
	for {
		var nbs []int
		if succs {
			nbs = s.Graph.Succs(cur)
		} else {
			nbs = s.Graph.Preds(cur)
		}
		cand := -1
		for _, nb := range nbs {
			if visited[nb] != gen && conf[nb] < conf[ih] && (cand < 0 || nb < cand) {
				cand = nb
			}
		}
		if cand < 0 {
			return gen
		}
		s.W.Blend(cand, ih, 0.5)
		visited[cand] = gen
		cur = cand
	}
}

// Level is LEVEL, level distribution: distribute the instructions of a
// dependence level across clusters to expose parallelism, while keeping
// instructions that are close in the graph together to limit communication.
// Confident instructions seed per-cluster bins; the rest are dealt
// round-robin, each bin taking the unassigned instruction farthest from it.
type Level struct {
	// Stride applies the pass every Stride levels (the paper uses 4 on
	// Raw, matching the machine's profitable parallelism granularity).
	Stride int
	// MinDist is the paper's g parameter: instructions closer than this
	// to an existing bin stay out of the round-robin distribution
	// (default 2).
	MinDist int
	// ConfThreshold seeds bins with instructions at least this confident
	// (the paper uses 2.0).
	ConfThreshold float64
	// Factor is the weight boost toward the chosen bin's cluster
	// (default 3; the paper does not publish this constant).
	Factor float64
}

// Name implements core.Pass.
func (Level) Name() string { return "LEVEL" }

// Run implements core.Pass.
func (p Level) Run(s *core.State) {
	stride := p.Stride
	if stride == 0 {
		stride = 4
	}
	minDist := p.MinDist
	if minDist == 0 {
		minDist = 2
	}
	th := p.ConfThreshold
	if th == 0 {
		th = 2
	}
	f := p.Factor
	if f == 0 {
		f = 3
	}
	maxLevel := -1
	for _, l := range s.UnitLevel {
		if l > maxLevel {
			maxLevel = l
		}
	}
	n := s.Graph.Len()
	sc := s.Scratch()
	il := sc.IntsCap(n)
	rest := sc.IntsCap(n)
	ig := sc.IntsCap(n)
	for l := 0; l <= maxLevel; l += stride {
		p.distribute(s, l, minDist, th, f, il, rest, ig)
	}
}

func (p Level) distribute(s *core.State, level, minDist int, th, f float64, il, rest, ig []int) {
	C := s.W.Clusters()
	il = il[:0]
	for i, l := range s.UnitLevel {
		if l == level {
			il = append(il, i)
		}
	}
	if len(il) == 0 {
		return
	}
	bins := s.Scratch().Bins(C)
	rest = rest[:0]
	for _, i := range il {
		if s.W.Confidence(i) >= th {
			c := s.W.PreferredCluster(i)
			bins[c] = append(bins[c], i)
		} else {
			rest = append(rest, i)
		}
	}
	// Instructions close to an existing bin are left where they are; the
	// distant ones (the paper's Ig) get distributed round-robin, each
	// bin pulling the remaining instruction farthest from itself.
	ig = ig[:0]
	for _, i := range rest {
		if _, d := closestBin(s, bins, i); d > minDist {
			ig = append(ig, i)
		}
	}
	slices.Sort(ig)
	rr := 0
	for len(ig) > 0 {
		b := rr % C
		rr++
		// Farthest remaining instruction from bin b; instructions
		// with no connection (infinite distance) are the farthest of
		// all.
		bestIdx, bestD := 0, -1
		for k, i := range ig {
			d := distToBin(s, bins, i, b)
			if d > bestD {
				bestIdx, bestD = k, d
			}
		}
		chosen := ig[bestIdx]
		ig = append(ig[:bestIdx], ig[bestIdx+1:]...)
		bins[b] = append(bins[b], chosen)
		s.W.MulCluster(chosen, b, f)
	}
	// Also reinforce the seeds so the bins stay stable.
	for c := 0; c < C; c++ {
		for _, i := range bins[c] {
			if s.W.PreferredCluster(i) == c {
				s.W.MulCluster(i, c, 1.1)
			}
		}
	}
}

// distToBin returns the dependence-graph distance from i to the nearest
// member of bin c (MaxInt32 when unconnected).
func distToBin(s *core.State, bins [][]int, i, c int) int {
	d := s.Distances(i)
	best := math.MaxInt32
	for _, b := range bins[c] {
		if d[b] >= 0 && int(d[b]) < best {
			best = int(d[b])
		}
	}
	return best
}

// closestBin returns the non-empty bin nearest to i.
func closestBin(s *core.State, bins [][]int, i int) (bin, dist int) {
	bin, dist = -1, math.MaxInt32
	for c := range bins {
		if len(bins[c]) == 0 {
			continue
		}
		if d := distToBin(s, bins, i, c); d < dist {
			bin, dist = c, d
		}
	}
	return bin, dist
}
