// Package oracle is the optimality oracle: an exact branch-and-bound
// scheduler over a communication-relaxed model that, for small kernels,
// either proves a legal schedule optimal or certifies a lower bound on the
// optimal makespan. The heuristic ladder is validated against it: the gap
// between a heuristic schedule's length and the oracle's certified lower
// bound measures how far convergent scheduling sits from optimal.
//
// Certification is by pinching: any legal schedule is feasible in the
// relaxation at the same makespan, so the relaxed optimum (or any relaxed
// lower bound) is a true lower bound; when a gated legal schedule's length
// meets it, that schedule is proven optimal. The oracle never emits a
// schedule it has not passed through sim.Gate, the pristine-graph legality
// gate the robust ladder and the schedule cache share (simulating when
// asked), and never reports a lower bound above the length of a feasible
// schedule it holds.
package oracle

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Search outcome labels reported in Result.Status.
const (
	// StatusOptimal: the best schedule's length equals the certified
	// lower bound; the schedule is proven optimal.
	StatusOptimal = "optimal"
	// StatusGap: the search exhausted the relaxed space, so the lower
	// bound is the exact relaxed optimum, but no legal schedule matching
	// it was realized — the remaining gap is the relaxation's.
	StatusGap = "relaxation-gap"
	// StatusNodeBudget: the node budget ran out mid-search; the lower
	// bound is certified but possibly weaker than the relaxed optimum.
	StatusNodeBudget = "node-budget"
	// StatusDeadline: the time budget or context expired mid-search.
	StatusDeadline = "deadline"
	// StatusTooLarge: the graph exceeds MaxSearchOps; only the static
	// bounds certify the lower bound.
	StatusTooLarge = "too-large"
)

// Default budgets. The node budget caps branch-and-bound tree nodes; the
// ops cap routes graphs too large for exact search to bounds-only mode.
const (
	DefaultNodeBudget   = 4_000_000
	DefaultMaxSearchOps = 96
)

// Options configures one oracle run.
type Options struct {
	// NodeBudget caps the number of search-tree nodes expanded; <= 0
	// means DefaultNodeBudget. On exhaustion the oracle returns a
	// certified (possibly non-optimal) lower bound, never silence.
	NodeBudget int64
	// MaxSearchOps routes graphs with more instructions to bounds-only
	// mode (static lower bounds, no tree search); <= 0 means
	// DefaultMaxSearchOps.
	MaxSearchOps int
	// Timeout bounds wall-clock search time; zero means none (the
	// context still applies).
	Timeout time.Duration
	// Incumbent optionally seeds the search with a known legal schedule
	// (e.g. the ladder's) for the same graph and machine; the oracle
	// re-gates it and rejects the run if it is illegal.
	Incumbent *schedule.Schedule
	// Verify additionally simulates every emitted schedule against
	// sequential reference execution. Validation always runs.
	Verify bool
	// InitMemory is the initial memory Verify simulates against; nil
	// means empty memory.
	InitMemory sim.Memory
}

// Result reports a certified scheduling verdict: a gated legal schedule and
// a proven lower bound that never exceeds its length.
type Result struct {
	// LowerBound is the certified lower bound on the optimal makespan.
	LowerBound int
	// Best is the best legal schedule found, re-validated against the
	// pristine graph and machine. Never nil on success.
	Best *schedule.Schedule
	// BestLength is Best's makespan.
	BestLength int
	// Certified reports BestLength == LowerBound: Best is proven optimal.
	Certified bool
	// Searched reports whether branch-and-bound ran at all (the graph
	// fit under MaxSearchOps and the static bounds left a gap).
	Searched bool
	// Complete reports the search exhausted the relaxed space, making
	// LowerBound at least the exact relaxed optimum.
	Complete bool
	// Nodes counts expanded search-tree nodes.
	Nodes int64
	// Status is one of the Status* labels.
	Status string
	// Bounds is the static lower-bound breakdown.
	Bounds Bounds
}

// Gap returns BestLength - LowerBound: zero exactly when Best is proven
// optimal.
func (r *Result) Gap() int { return r.BestLength - r.LowerBound }

// Solve runs the oracle for g on m. It always returns either an error or a
// Result holding a gated legal schedule plus a lower bound certified by the
// static bounds and (when the graph is small enough) the relaxed search.
func Solve(ctx context.Context, g *ir.Graph, m *machine.Model, opt Options) (*Result, error) {
	if g == nil || g.Len() == 0 {
		return nil, fmt.Errorf("oracle: empty graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("oracle: invalid graph: %w", err)
	}
	if opt.NodeBudget <= 0 {
		opt.NodeBudget = DefaultNodeBudget
	}
	if opt.MaxSearchOps <= 0 {
		opt.MaxSearchOps = DefaultMaxSearchOps
	}
	p, err := build(g, m)
	if err != nil {
		return nil, err
	}
	res := &Result{Bounds: p.staticBounds()}
	res.LowerBound = res.Bounds.Max()

	// Seed a feasible schedule: the caller's incumbent when provided
	// (gated — an illegal incumbent is a contract violation), else a
	// deterministic list-scheduled fallback.
	var best *schedule.Schedule
	if opt.Incumbent != nil {
		gated, err := sim.Gate(opt.Incumbent, g, m, opt.Verify, opt.InitMemory)
		if err != nil {
			return nil, fmt.Errorf("oracle: incumbent fails the legality gate: %w", err)
		}
		best = gated
	}
	if fallback, err := listSeed(p); err == nil {
		if gated, gerr := sim.Gate(fallback, g, m, opt.Verify, opt.InitMemory); gerr == nil {
			if best == nil || gated.Length() < best.Length() {
				best = gated
			}
		}
	} else if best == nil {
		return nil, fmt.Errorf("oracle: no feasible seed schedule: %w", err)
	}
	if best == nil {
		return nil, fmt.Errorf("oracle: no feasible seed schedule")
	}
	res.Best = best
	res.BestLength = best.Length()

	if res.BestLength <= res.LowerBound {
		// Pinched before searching: the seed already meets the bound.
		res.Certified = true
		res.Status = StatusOptimal
		return res, nil
	}
	if p.n > opt.MaxSearchOps {
		res.Status = StatusTooLarge
		return res, nil
	}

	// Relaxed branch-and-bound, seeded with the legal incumbent's length
	// as the initial upper bound.
	var deadline time.Time
	if opt.Timeout > 0 {
		deadline = time.Now().Add(opt.Timeout)
	}
	s := newSearcher(ctx, p, res.BestLength, opt.NodeBudget, deadline)
	relaxedBest, relaxedLB, complete := s.run()
	res.Searched = true
	res.Complete = complete
	res.Nodes = s.nodes

	// The search bound and the static bounds certify independently;
	// take the stronger. relaxedLB never exceeds res.BestLength (the
	// seed is relaxed-feasible), so LowerBound <= BestLength holds.
	if relaxedLB > res.LowerBound {
		res.LowerBound = relaxedLB
	}

	// Realize the improved relaxed solution as a legal schedule by
	// re-running the list scheduler with the relaxed clusters as the
	// assignment and the relaxed starts as priorities, then gate it.
	if relaxedBest != nil {
		if realized, err := realize(p, relaxedBest); err == nil {
			if gated, gerr := sim.Gate(realized, g, m, opt.Verify, opt.InitMemory); gerr == nil && gated.Length() < res.BestLength {
				res.Best = gated
				res.BestLength = gated.Length()
			}
		}
	}

	res.Certified = res.BestLength == res.LowerBound
	switch {
	case res.Certified:
		res.Status = StatusOptimal
	case !complete:
		res.Status = s.abortReason
	default:
		res.Status = StatusGap
	}
	return res, nil
}

// listSeed builds the deterministic fallback schedule: everything on its
// mandatory cluster when it has one, cluster zero otherwise, list-scheduled
// under critical-path priority.
func listSeed(p *problem) (*schedule.Schedule, error) {
	assign := make([]int, p.n)
	for i := range assign {
		if p.fixed[i] >= 0 {
			assign[i] = p.fixed[i]
		} else {
			assign[i] = p.legal[i][0]
		}
	}
	return listsched.Run(p.g, p.m, listsched.Options{Assignment: assign})
}

// realize converts a relaxed solution into a legal schedule: the relaxed
// cluster choices become the assignment and the relaxed issue cycles the
// priority, so the list scheduler re-times the same spatial layout under
// the full communication model.
func realize(p *problem, sol []place) (*schedule.Schedule, error) {
	assign := make([]int, p.n)
	prio := make([]float64, p.n)
	for i, pl := range sol {
		assign[i] = pl.cluster
		prio[i] = float64(pl.start)
	}
	return listsched.Run(p.g, p.m, listsched.Options{Assignment: assign, Priority: prio})
}
