package passes

// refPath is PATH as it was before its longest-path search became
// incremental and it read latencies from a per-instruction table, kept
// verbatim (apart from names) as the reference side of
// TestPathMatchesReference. It shares absorbFringe, splitAtHomes and
// chooseCluster with Path.

import "repro/internal/core"

type refPath Path

// Run is Path.Run as it was.
func (p refPath) Run(s *core.State) {
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
	// Work buffers reused across path iterations. down/next are fully
	// overwritten per search; onPath is cleared selectively after each
	// iteration (its set bits are exactly the absorbed path's members).
	down := sc.Ints(n)
	next := sc.Ints(n)
	pathBuf := sc.IntsCap(n)
	onPath := sc.Bools(n)
	fringeBuf := sc.IntsCap(n)
	cutBuf := sc.IntsCap(n + 1)
	sums := sc.Floats(s.W.Clusters())
	for iter := 0; iter < maxPaths; iter++ {
		path := refLongestUnmarkedPath(s, marked, down, next, pathBuf)
		if len(path) == 0 || float64(refPathLength(s, path)) < minFrac*float64(cpl) {
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
			cc := Path(p).chooseCluster(s, seg, ratio, loads, sums)
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
			onPath[i] = false
		}
	}
}

// refPathLength sums machine latencies along a path.
func refPathLength(s *core.State, path []int) int {
	total := 0
	for _, i := range path {
		total += s.Machine.OpLatency(s.Graph.Instrs[i].Op)
	}
	return total
}

// refLongestUnmarkedPath finds the longest dependence chain consisting purely
// of unmarked instructions, under machine latencies. Returns nil when all
// instructions are marked. down and next must hold Len values (contents are
// overwritten); pathBuf provides the backing for the returned path.
func refLongestUnmarkedPath(s *core.State, marked []bool, down, next, pathBuf []int) []int {
	g := s.Graph
	n := g.Len()
	lat := s.Machine.LatencyFunc()
	best := -1
	for i := n - 1; i >= 0; i-- {
		next[i] = -1
		if marked[i] {
			down[i] = 0
			continue
		}
		down[i] = lat(g.Instrs[i].Op)
		for _, sc := range g.Succs(i) {
			if marked[sc] {
				continue
			}
			if l := lat(g.Instrs[i].Op) + down[sc]; l > down[i] {
				down[i] = l
				next[i] = sc
			}
		}
		if best < 0 || down[i] > down[best] {
			best = i
		}
	}
	if best < 0 || marked[best] {
		return nil
	}
	path := pathBuf[:0]
	for cur := best; cur >= 0; cur = next[cur] {
		path = append(path, cur)
	}
	return path
}
