package core

import "sync"

// Scratch is the per-driver scratch arena behind the zero-allocation hot
// path. Every buffer a convergent pass (or the driver loop itself) needs for
// one RunPasses run is carved out of three grow-only backing arrays — ints,
// floats, bools — plus a small set of reusable append-slices. The arena is
// rewound (not freed) at the start of each run, so once the backing arrays
// have grown to a workload's high-water mark the entire pass loop performs
// no heap allocations at all.
//
// Lifetime rules:
//
//   - A buffer handed out by Ints/Floats/Bools/IntsCap/Bins is valid until
//     the next Rewind. Passes must not retain scratch buffers across Run
//     calls; anything that outlives the run (Result fields, obs records)
//     must be copied into freshly allocated memory.
//   - One Scratch serves exactly one State at a time. States acquired
//     through the package pool return their scratch when release is called;
//     an abandoned ladder attempt (internal/robust) keeps its scratch until
//     its goroutine finishes, so a rung timing out can never hand its
//     buffers to a concurrent rung.
type Scratch struct {
	ints   []int
	floats []float64
	bools  []bool

	intOff, floatOff, boolOff int

	// bins is LEVEL's per-cluster instruction lists: the spine and every
	// element keep their capacity across runs.
	bins [][]int
}

// NewScratch returns an empty arena; backing arrays grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

// Rewind releases every outstanding buffer. Callers must not touch buffers
// handed out before the rewind.
func (s *Scratch) Rewind() {
	s.intOff, s.floatOff, s.boolOff = 0, 0, 0
}

// Ints returns a zeroed scratch slice of n ints.
func (s *Scratch) Ints(n int) []int {
	if s.intOff+n > len(s.ints) {
		// Abandoning the old backing array is safe: buffers handed out
		// earlier keep it alive and untouched.
		s.ints = make([]int, growSize(len(s.ints), s.intOff+n))
		s.intOff = 0
	}
	b := s.ints[s.intOff : s.intOff+n : s.intOff+n]
	s.intOff += n
	clear(b)
	return b
}

// IntsCap returns an empty scratch slice with capacity n, for append-style
// use. Appending beyond n allocates; callers size n to their worst case.
func (s *Scratch) IntsCap(n int) []int { return s.Ints(n)[:0] }

// Floats returns a zeroed scratch slice of n floats.
func (s *Scratch) Floats(n int) []float64 {
	if s.floatOff+n > len(s.floats) {
		s.floats = make([]float64, growSize(len(s.floats), s.floatOff+n))
		s.floatOff = 0
	}
	b := s.floats[s.floatOff : s.floatOff+n : s.floatOff+n]
	s.floatOff += n
	clear(b)
	return b
}

// Bools returns a zeroed scratch slice of n bools.
func (s *Scratch) Bools(n int) []bool {
	if s.boolOff+n > len(s.bools) {
		s.bools = make([]bool, growSize(len(s.bools), s.boolOff+n))
		s.boolOff = 0
	}
	b := s.bools[s.boolOff : s.boolOff+n : s.boolOff+n]
	s.boolOff += n
	clear(b)
	return b
}

// Bins returns c empty int lists whose backing arrays persist across runs
// (LEVEL's per-cluster bins). Unlike the arena buffers these may be appended
// to freely; they reach steady state once each list has seen its largest
// population.
func (s *Scratch) Bins(c int) [][]int {
	for len(s.bins) < c {
		s.bins = append(s.bins, nil)
	}
	b := s.bins[:c]
	for i := range b {
		b[i] = b[i][:0]
	}
	return b
}

func growSize(cur, need int) int {
	next := cur * 2
	if next < need {
		next = need
	}
	if next < 64 {
		next = 64
	}
	return next
}

// scratchPool recycles Scratch arenas (and, through pooled States, PrefMap
// backings) across scheduling runs: this is what lets engine workers reuse
// one warm set of buffers for a whole batch instead of reallocating the
// preference map per graph.
var statePool = sync.Pool{New: func() any {
	s := &State{sc: NewScratch()}
	s.W = &s.pm
	return s
}}
