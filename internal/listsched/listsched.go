package listsched

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Options configures a list-scheduling run.
type Options struct {
	// Assignment gives the cluster of every instruction (by ID). It is
	// required and must respect preplacement homes and memory locality.
	Assignment []int
	// Priority orders instructions competing for the same cycle: smaller
	// values issue first (the convergent scheduler passes its preferred
	// times here). Nil means critical-path priority (largest height
	// first). Ties break by instruction ID.
	Priority []float64
}

// CriticalPathPriority returns the default priority used when Options.
// Priority is nil: the negated height, so instructions heading the longest
// remaining chains issue first.
func CriticalPathPriority(g *ir.Graph, m *machine.Model) []float64 {
	h := g.Height(m.LatencyFunc())
	p := make([]float64, len(h))
	for i, v := range h {
		p[i] = -float64(v)
	}
	return p
}

// SortByPriority orders instruction IDs by ascending priority, breaking
// ties by ID: the issue order of the cycle-driven schedulers.
func SortByPriority(ids []int, prio []float64) {
	slices.SortFunc(ids, func(a, b int) int {
		if prio[a] != prio[b] {
			if prio[a] < prio[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
}

// CheckAssignment verifies that an assignment is complete and legal for the
// graph and machine: in range, preplacement homes respected, memory ops on
// clusters allowed to reach their banks, and every opcode runnable on some
// functional unit of its cluster.
func CheckAssignment(g *ir.Graph, m *machine.Model, assign []int) error {
	if len(assign) != g.Len() {
		return fmt.Errorf("listsched: assignment covers %d of %d instructions", len(assign), g.Len())
	}
	for i, c := range assign {
		in := g.Instrs[i]
		if c < 0 || c >= m.NumClusters {
			return fmt.Errorf("listsched: instr %d assigned to cluster %d of %d", i, c, m.NumClusters)
		}
		if in.Preplaced() && c != in.Home {
			return fmt.Errorf("listsched: preplaced instr %d assigned to %d, home %d", i, c, in.Home)
		}
		if _, ok := m.InstrLatency(in, c); !ok {
			return fmt.Errorf("listsched: instr %d (%v bank %d) cannot execute on cluster %d", i, in.Op, in.Bank, c)
		}
		if in.Op != ir.Nop && m.FirstFU(in.Op) < 0 {
			return fmt.Errorf("listsched: no functional unit runs %v", in.Op)
		}
	}
	return nil
}

// Run builds a schedule for the graph on the machine with the given
// assignment and priority. The scheduler is cycle-driven: each cycle it
// places, in priority order, every ready instruction whose operands have
// arrived on its cluster and for which a compatible functional unit is
// free. Inter-cluster moves are scheduled eagerly at their earliest
// feasible departure the first time a remote consumer becomes ready for
// consideration.
func Run(g *ir.Graph, m *machine.Model, opt Options) (*schedule.Schedule, error) {
	g.Seal()
	if err := CheckAssignment(g, m, opt.Assignment); err != nil {
		return nil, err
	}
	prio := opt.Priority
	if prio == nil {
		prio = CriticalPathPriority(g, m)
	}
	if len(prio) != g.Len() {
		return nil, fmt.Errorf("listsched: priority covers %d of %d instructions", len(prio), g.Len())
	}

	t := NewTables(g, m)
	n := g.Len()
	// pending[i] counts unplaced predecessors; candidates hold
	// instructions whose predecessors are all placed.
	pending := make([]int, n)
	var candidates []int
	for i := 0; i < n; i++ {
		pending[i] = len(g.Preds(i))
		if pending[i] == 0 {
			candidates = append(candidates, i)
		}
	}
	SortByPriority(candidates, prio)

	placedTotal := 0
	// Generous upper bound on schedule length: serial execution plus a
	// worst-case communication per instruction. Exceeding it means the
	// scheduler is stuck, which would be a bug.
	bound := 16
	maxComm := m.MaxCommLatency()
	for _, in := range g.Instrs {
		bound += m.OpLatency(in.Op) + maxComm + 1
	}

	for cycle := 0; placedTotal < n; cycle++ {
		if cycle > bound {
			return nil, fmt.Errorf("listsched: no progress by cycle %d (%d of %d placed)", cycle, placedTotal, n)
		}
		progressed := false
		var next []int
		var newlyPlaced []int
		for _, i := range candidates {
			cl := opt.Assignment[i]
			// Probe first; only commit communication reservations
			// once the instruction is actually placeable this
			// cycle, so deferred candidates never pin down ports
			// they cannot use yet.
			if est := t.EarliestStart(i, cl, false); est > cycle {
				next = append(next, i)
				continue
			}
			fu := t.FindFU(g.Instrs[i].Op, cl, cycle)
			if fu < 0 {
				next = append(next, i)
				continue
			}
			if est := t.EarliestStart(i, cl, true); est > cycle {
				// Committing found contention introduced by an
				// earlier placement in this same cycle.
				next = append(next, i)
				continue
			}
			t.Place(i, cl, fu, cycle)
			placedTotal++
			progressed = true
			newlyPlaced = append(newlyPlaced, i)
		}
		candidates = next
		for _, i := range newlyPlaced {
			for _, s := range g.Succs(i) {
				pending[s]--
				if pending[s] == 0 {
					candidates = append(candidates, s)
				}
			}
		}
		if progressed || len(newlyPlaced) > 0 {
			SortByPriority(candidates, prio)
		}
	}
	sched := t.Schedule()
	sched.SortComms()
	return sched, nil
}
