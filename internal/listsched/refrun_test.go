package listsched

// refRun is the list scheduler as it was before it cached readiness,
// merged newly ready candidates into the sorted list and jumped idle
// cycles, kept verbatim (apart from its name) as the reference side of
// FuzzListSchedule.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Run builds a schedule for the graph on the machine with the given
// assignment and priority. The scheduler is cycle-driven: each cycle it
// places, in priority order, every ready instruction whose operands have
// arrived on its cluster and for which a compatible functional unit is
// free. Inter-cluster moves are scheduled eagerly at their earliest
// feasible departure the first time a remote consumer becomes ready for
// consideration.
func refRun(g *ir.Graph, m *machine.Model, opt Options) (*schedule.Schedule, error) {
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
