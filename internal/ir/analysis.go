package ir

// LatencyFunc maps an opcode to its result latency in cycles. Machine models
// provide one (see internal/machine); analyses are parameterised on it so the
// same graph can be scheduled for machines with different timings.
type LatencyFunc func(Op) int

// EarliestStart returns, per instruction, the earliest cycle it could issue
// on a machine with infinite resources and zero communication cost: the
// length of the longest predecessor chain ("lp" in the paper), measured with
// the given latencies. Roots start at cycle 0.
func (g *Graph) EarliestStart(lat LatencyFunc) []int {
	return g.EarliestStartInto(lat, make([]int, len(g.Instrs)))
}

// EarliestStartInto is EarliestStart writing into es, which must hold Len
// values; it returns es. The allocation-free variant exists for callers that
// recompute analyses per graph on a hot path (see internal/core's pooled
// scheduling state).
func (g *Graph) EarliestStartInto(lat LatencyFunc, es []int) []int {
	g.Seal()
	for i := range g.Instrs {
		es[i] = 0
		for _, p := range g.preds[i] {
			if t := es[p] + lat(g.Instrs[p].Op); t > es[i] {
				es[i] = t
			}
		}
	}
	return es
}

// Height returns, per instruction, the length in cycles of the longest chain
// from the instruction (inclusive of its own latency) to any leaf: the
// paper's "ls", the latency of the successor chain. A leaf's height is its
// own latency.
func (g *Graph) Height(lat LatencyFunc) []int {
	return g.HeightInto(lat, make([]int, len(g.Instrs)))
}

// HeightInto is Height writing into h, which must hold Len values; it
// returns h.
func (g *Graph) HeightInto(lat LatencyFunc, h []int) []int {
	g.Seal()
	for i := len(g.Instrs) - 1; i >= 0; i-- {
		best := 0
		for _, s := range g.succs[i] {
			if h[s] > best {
				best = h[s]
			}
		}
		h[i] = best + lat(g.Instrs[i].Op)
	}
	return h
}

// CriticalPathLength returns the length in cycles of the longest chain in
// the graph under the given latencies (the schedule-length lower bound on an
// unlimited machine). An empty graph has length zero.
func (g *Graph) CriticalPathLength(lat LatencyFunc) int {
	cpl := 0
	for _, h := range g.Height(lat) {
		if h > cpl {
			cpl = h
		}
	}
	return cpl
}

// UnitLevel returns the paper's level(i): the distance of each instruction
// from the furthest root, counted in edges. Roots are level 0.
func (g *Graph) UnitLevel() []int {
	return g.UnitLevelInto(make([]int, len(g.Instrs)))
}

// UnitLevelInto is UnitLevel writing into lv, which must hold Len values; it
// returns lv.
func (g *Graph) UnitLevelInto(lv []int) []int {
	g.Seal()
	for i := range g.Instrs {
		lv[i] = 0
		for _, p := range g.preds[i] {
			if lv[p]+1 > lv[i] {
				lv[i] = lv[p] + 1
			}
		}
	}
	return lv
}

// DistancesInto writes the undirected dependence-graph distance (in edges)
// from src to every instruction into dst, and returns dst; unreachable
// instructions get -1. dst and queue must each hold Len values: queue is
// the breadth-first work list, read by index, so the call never allocates.
// The LEVEL pass uses this to keep nearby instructions in the same bin.
func (g *Graph) DistancesInto(src int, dst, queue []int32) []int32 {
	g.Seal()
	for i := range dst {
		dst[i] = -1
	}
	dst[src] = 0
	queue[0] = int32(src)
	for head, tail := 0, 1; head < tail; head++ {
		cur := queue[head]
		for _, nb := range g.neighbors[cur] {
			if dst[nb] < 0 {
				dst[nb] = dst[cur] + 1
				queue[tail] = int32(nb)
				tail++
			}
		}
	}
	return dst
}

// Neighbors returns the deduplicated union of predecessors and successors of
// instruction i, in predecessor-then-successor order. The slice is computed
// at Seal time and owned by the graph: callers must not modify it, and in
// exchange the call never allocates, which the scheduling hot path relies
// on.
func (g *Graph) Neighbors(i int) []int {
	g.Seal()
	return g.neighbors[i]
}
