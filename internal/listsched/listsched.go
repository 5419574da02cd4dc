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
//
// No work is repeated that cannot change its answer. A candidate's earliest
// start never falls (an arrival is set once, reservations are never
// released and memory-predecessor readiness is fixed once the candidate is
// ready), so a candidate is not probed again until the cycle reaches its
// last probed start; cycles in which no candidate can wake are skipped.
// The candidate list stays in SortByPriority order, a total order, by
// merging each cycle's newly ready instructions into it.
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
	// instructions whose predecessors are all placed, in priority order.
	// est[i] is candidate i's last probed earliest start. noFU[cl*ir.NumOps
	// +op] is cycle+1 once FindFU has failed for the opcode on the cluster
	// in this cycle: placements and comm commits within a cycle only take
	// units, never release them, so the first failure answers every later
	// candidate of the cycle, and the stamp expires with its cycle without
	// any clearing. The three share one allocation.
	work := make([]int, 2*n+m.NumClusters*ir.NumOps)
	pending, est, noFU := work[:n:n], work[n:2*n:2*n], work[2*n:]
	candidates := make([]int, 0, n)
	merged := make([]int, 0, n)
	fresh := make([]int, 0, n)
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

	for cycle := 0; placedTotal < n; {
		if cycle > bound {
			return nil, fmt.Errorf("listsched: no progress by cycle %d (%d of %d placed)", cycle, placedTotal, n)
		}
		// wake is the first cycle at which a deferred candidate may
		// issue, clamped so a stuck schedule still fails at bound+1.
		// The cycle advances by at least one whatever wake says, so no
		// error in it can keep the bound from ending a stuck run.
		wake := bound + 1
		kept := candidates[:0]
		fresh = fresh[:0]
		for _, i := range candidates {
			if cycle < est[i] {
				kept = append(kept, i)
				wake = min(wake, est[i])
				continue
			}
			cl := opt.Assignment[i]
			op := g.Instrs[i].Op
			fu := -1
			if memo := cl*ir.NumOps + int(op); noFU[memo] != cycle+1 {
				if fu = t.FindFU(op, cl, cycle); fu < 0 {
					noFU[memo] = cycle + 1
				}
			}
			if fu < 0 {
				kept = append(kept, i)
				wake = cycle + 1
				continue
			}
			// Probe first; only commit communication reservations
			// once the instruction is actually placeable this
			// cycle, so deferred candidates never pin down ports
			// they cannot use yet. A failed commit found contention
			// introduced by an earlier placement in this same cycle.
			if est[i] = t.EarliestStart(i, cl, false); est[i] <= cycle {
				est[i] = t.EarliestStart(i, cl, true)
			}
			if est[i] > cycle {
				kept = append(kept, i)
				wake = min(wake, est[i])
				continue
			}
			t.Place(i, cl, fu, cycle)
			placedTotal++
			for _, s := range g.Succs(i) {
				pending[s]--
				if pending[s] == 0 {
					fresh = append(fresh, s)
				}
			}
		}
		candidates = kept
		if len(fresh) > 0 {
			SortByPriority(fresh, prio)
			merged = mergeByPriority(merged[:0], candidates, fresh, prio)
			candidates, merged = merged, candidates
			wake = cycle + 1
		}
		cycle = max(cycle+1, wake)
	}
	sched := t.Schedule()
	sched.SortComms()
	return sched, nil
}

// mergeByPriority appends to dst the merge of a and b, each already in
// SortByPriority order, in that order.
func mergeByPriority(dst, a, b []int, prio []float64) []int {
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0], b[0]
		if prio[x] < prio[y] || prio[x] == prio[y] && x < y {
			dst = append(dst, x)
			a = a[1:]
		} else {
			dst = append(dst, y)
			b = b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}
