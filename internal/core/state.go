package core

import (
	"math/rand"
	"slices"

	"repro/internal/ir"
	"repro/internal/machine"
)

// State is the shared blackboard a convergent pass operates on. Passes read
// the dependence graph, the machine model and cached structural analyses,
// and communicate only by mutating W.
type State struct {
	// Graph is the scheduling unit being scheduled.
	Graph *ir.Graph
	// Machine is the target.
	Machine *machine.Model
	// W is the preference map; the driver normalizes it after every pass.
	W *PrefMap
	// Rand is the deterministic noise source (seeded by the driver).
	Rand *rand.Rand

	// CPL is the critical-path length in cycles under machine latencies;
	// W has exactly CPL time slots (minimum one).
	CPL int
	// EarliestStart and LatestStart bound each instruction's feasible
	// issue window in cycles ("lp" and "CPL - ls" in the paper).
	EarliestStart, LatestStart []int
	// UnitLevel is the paper's level(i): edge distance from the furthest
	// root.
	UnitLevel []int

	// dist holds the Distances rows of the current graph, appended on
	// first use: the row of source src starts at dist[distOff[src]] and is
	// current when distGen[src] == distEpoch. init bumps the epoch and
	// truncates dist, so a recycled state refills the same grow-only table
	// without clearing it. distQueue is the breadth-first work list.
	dist      []int32
	distQueue []int32
	distOff   []int
	distGen   []int
	distEpoch int

	// pm is the pooled backing for W: every state owns its map in place so
	// a recycled state re-shapes the same contiguous arrays with
	// PrefMap.Reset instead of allocating a map per graph.
	pm PrefMap
	// sc is the scratch arena passes draw their buffers from.
	sc *Scratch
	// esBuf, lsBuf, lvlBuf back the analysis slices across reuses.
	esBuf, lsBuf, lvlBuf []int
	// pooled marks states owned by the package pool (see release).
	pooled bool
}

// NewState builds a state with a uniform preference map for scheduling g on
// m. The random source is seeded with seed so runs are reproducible.
//
// NewState always allocates fresh backing arrays; the driver entry points
// (Schedule, ScheduleCtx) use a recycled state from an internal pool instead.
// The two are proven byte-identical by the differential harness.
func NewState(g *ir.Graph, m *machine.Model, seed int64) *State {
	s := &State{sc: NewScratch()}
	s.W = &s.pm
	s.init(g, m, seed)
	return s
}

// newPooledState is NewState drawing the state — preference-map backing,
// scratch arena, analysis buffers, RNG — from the package pool.
func newPooledState(g *ir.Graph, m *machine.Model, seed int64) *State {
	s := statePool.Get().(*State)
	s.init(g, m, seed)
	s.pooled = true
	return s
}

// init (re-)shapes the state for scheduling g on m, reusing every backing
// array that is already big enough.
func (s *State) init(g *ir.Graph, m *machine.Model, seed int64) {
	g.Seal()
	n := g.Len()
	lat := m.LatencyFunc()

	s.lsBuf = growInts(s.lsBuf, n)
	g.HeightInto(lat, s.lsBuf)
	maxH := 0
	for _, h := range s.lsBuf {
		if h > maxH {
			maxH = h
		}
	}
	// LatestStart is CPL - height under the unclamped critical-path length;
	// the map's time axis uses the clamped-to-one value.
	for i, h := range s.lsBuf {
		s.lsBuf[i] = maxH - h
	}
	cpl := maxH
	if cpl < 1 {
		cpl = 1
	}

	s.esBuf = growInts(s.esBuf, n)
	g.EarliestStartInto(lat, s.esBuf)
	s.lvlBuf = growInts(s.lvlBuf, n)
	g.UnitLevelInto(s.lvlBuf)

	s.pm.Reset(n, cpl, m.NumClusters)
	if s.Rand == nil {
		s.Rand = rand.New(rand.NewSource(seed))
	} else {
		// Rand.Seed re-initialises the underlying source exactly as
		// rand.NewSource(seed) would, so a recycled state draws the same
		// noise stream a fresh one does.
		s.Rand.Seed(seed)
	}
	if cap(s.distGen) < n {
		s.distOff = make([]int, n)
		s.distGen = make([]int, n)
		s.distQueue = make([]int32, n)
	} else {
		s.distOff = s.distOff[:n]
		s.distGen = s.distGen[:n]
		s.distQueue = s.distQueue[:n]
	}
	s.dist = s.dist[:0]
	s.distEpoch++

	s.Graph, s.Machine = g, m
	s.CPL = cpl
	s.EarliestStart, s.LatestStart, s.UnitLevel = s.esBuf, s.lsBuf, s.lvlBuf
}

// release returns a pooled state to the package pool. Only the driver entry
// points that created the state call it, strictly after the last read of W;
// a state a caller built with NewState is never pooled, so results handed to
// callers can alias it safely.
func (s *State) release() {
	if !s.pooled {
		return
	}
	s.pooled = false
	s.Graph, s.Machine = nil, nil
	statePool.Put(s)
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Scratch returns the state's scratch arena. Passes draw per-run buffers
// from it; see Scratch for the lifetime rules.
func (s *State) Scratch() *Scratch {
	if s.sc == nil {
		s.sc = NewScratch()
	}
	return s.sc
}

// Distances returns (and caches) the undirected dependence-graph distances
// from instruction src to every instruction; -1 marks unreachable nodes.
// The row lives in the state's table: callers must not modify it.
func (s *State) Distances(src int) []int32 {
	n := s.Graph.Len()
	if s.distGen[src] == s.distEpoch {
		off := s.distOff[src]
		return s.dist[off : off+n : off+n]
	}
	off := len(s.dist)
	s.dist = slices.Grow(s.dist, n)[:off+n]
	row := s.Graph.DistancesInto(src, s.dist[off:off+n:off+n], s.distQueue)
	s.distOff[src], s.distGen[src] = off, s.distEpoch
	return row
}

// LoadsInto writes the current spatial load estimate per cluster into dst,
// which must hold Clusters values, and returns dst: the sum over
// instructions of their cluster marginal. With normalized weights the loads
// sum to the instruction count. The hot path passes a scratch buffer here.
func (s *State) LoadsInto(dst []float64) []float64 {
	for c := range dst {
		dst[c] = 0
	}
	for i := 0; i < s.W.N(); i++ {
		for c := 0; c < s.W.Clusters(); c++ {
			dst[c] += s.W.ClusterWeight(i, c)
		}
	}
	return dst
}

// Pass is one convergent-scheduling heuristic. Run mutates s.W; the driver
// renormalizes afterwards, so passes need not maintain the invariants
// themselves (matching the paper, which runs normalization after every
// pass).
//
// A pass may borrow buffers from s.Scratch() but must not retain them — or
// any other reference into the state — after Run returns: the driver rewinds
// the arena between runs and recycles the whole state across graphs.
type Pass interface {
	// Name is the pass's table label (for example "PATH" or "COMM").
	Name() string
	// Run applies the heuristic to the state.
	Run(s *State)
}

// PassFunc adapts a function to the Pass interface.
type PassFunc struct {
	// Label is returned by Name.
	Label string
	// Fn is invoked by Run.
	Fn func(s *State)
}

// Name returns the label.
func (p PassFunc) Name() string { return p.Label }

// Run invokes the function.
func (p PassFunc) Run(s *State) { p.Fn(s) }
