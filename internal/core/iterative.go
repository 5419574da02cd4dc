package core

import (
	"context"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// IterativeResult reports an iterative convergent run.
type IterativeResult struct {
	// Best is the shortest schedule seen across rounds.
	Best *schedule.Schedule
	// BestRound is the 0-based round that produced it.
	BestRound int
	// Lengths records every round's schedule length.
	Lengths []int
}

// IterativeSchedule exploits the framework feature the paper calls out in
// Section 2 ("a heuristic [may] be applied multiple times, either
// independently or as part of an iterative process. This feature is useful
// to provide feedback between phases"): it alternates convergence and list
// scheduling, feeding each round's *actual* schedule back into the next
// round's preference map as a strong prior — the real placements and issue
// cycles become weights the heuristics then refine. The best schedule over
// all rounds is returned (never worse than a single Schedule call, up to
// noise-seed differences per round).
func IterativeSchedule(g *ir.Graph, m *machine.Model, seq []Pass, seed int64, rounds int) (*IterativeResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	if err := listsched.CheckGraph(g, m); err != nil {
		return nil, err
	}
	res := &IterativeResult{}
	var prev *schedule.Schedule
	for round := 0; round < rounds; round++ {
		s := NewState(g, m, seed+int64(round))
		if prev != nil {
			seedFromSchedule(s, prev)
		}
		sched, _, err := scheduleState(context.Background(), s, seq)
		if err != nil {
			return nil, err
		}
		res.Lengths = append(res.Lengths, sched.Length())
		if res.Best == nil || sched.Length() < res.Best.Length() {
			res.Best = sched
			res.BestRound = round
		}
		prev = sched
	}
	return res, nil
}

// seedFromSchedule biases a fresh state toward a known-good schedule: each
// instruction's actual (cluster, start) slot gets a strong multiplicative
// boost, clamped into the map's time range. The next round's passes can
// keep, refine, or overturn the prior — the convergent interface makes the
// feedback just another opinion.
func seedFromSchedule(s *State, sched *schedule.Schedule) {
	const boost = 4
	T := s.W.Times()
	for i, p := range sched.Placements {
		t := p.Start
		if t >= T {
			t = T - 1
		}
		s.W.MulCluster(i, p.Cluster, boost)
		s.W.MulTime(i, t, boost)
	}
	s.W.NormalizeAll()
}
