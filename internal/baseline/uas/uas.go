// Package uas reimplements Unified Assign and Schedule (Özer, Banerjia,
// Conte, MICRO-31 1998), the clustered-VLIW baseline of the paper's
// Figure 8: a cycle-driven list scheduler that picks each instruction's
// cluster at the moment it schedules it. Cluster candidates are ordered by
// the CPSC heuristic (completion-time first, then fewer copies, then load),
// modified as in the paper to give preplaced instructions' home clusters
// absolute priority.
package uas

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Schedule runs UAS on the graph for the machine.
func Schedule(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
	if err := listsched.CheckGraph(g, m); err != nil {
		return nil, err
	}
	g.Seal()
	n := g.Len()
	t := listsched.NewTables(g, m)
	prio := listsched.CriticalPathPriority(g, m)

	pending := make([]int, n)
	var candidates []int
	for i := 0; i < n; i++ {
		pending[i] = len(g.Preds(i))
		if pending[i] == 0 {
			candidates = append(candidates, i)
		}
	}
	listsched.SortByPriority(candidates, prio)

	placed := 0
	bound := 16
	maxComm := m.MaxCommLatency()
	for _, in := range g.Instrs {
		bound += m.OpLatency(in.Op) + maxComm + 1
	}
	loads := make([]int, m.NumClusters)

	for cycle := 0; placed < n; cycle++ {
		if cycle > bound {
			return nil, fmt.Errorf("uas: no progress by cycle %d (%d of %d placed)", cycle, placed, n)
		}
		var next []int
		var newly []int
		for _, i := range candidates {
			c, fu := chooseCluster(t, g, m, loads, i, cycle)
			if c < 0 {
				next = append(next, i)
				continue
			}
			// Commit the operand routes, then place.
			if est := t.EarliestStart(i, c, true); est > cycle {
				// A probe said this cycle was feasible but
				// committing found port contention introduced
				// meanwhile this cycle; retry next cycle.
				next = append(next, i)
				continue
			}
			t.Place(i, c, fu, cycle)
			loads[c]++
			placed++
			newly = append(newly, i)
		}
		candidates = next
		for _, i := range newly {
			for _, s := range g.Succs(i) {
				pending[s]--
				if pending[s] == 0 {
					candidates = append(candidates, s)
				}
			}
		}
		if len(newly) > 0 {
			listsched.SortByPriority(candidates, prio)
		}
	}
	s := t.Schedule()
	s.SortComms()
	return s, nil
}

// chooseCluster returns the best cluster and functional unit on which
// instruction i can issue at the given cycle, or (-1, -1) if no cluster can
// take it this cycle. Preplaced instructions only ever consider their home.
// Among feasible clusters the order is: fewest new copies required, then
// lightest current load, then lowest index — the paper's
// preplacement-modified CPSC.
func chooseCluster(t *listsched.Tables, g *ir.Graph, m *machine.Model, loads []int, i, cycle int) (cluster, fu int) {
	in := g.Instrs[i]
	type cand struct {
		c, fu, copies, load int
	}
	var best *cand
	consider := func(c int) {
		if in.Preplaced() && c != in.Home {
			return
		}
		if _, ok := m.InstrLatency(in, c); !ok {
			return
		}
		if est := t.EarliestStart(i, c, false); est > cycle {
			return
		}
		fu := t.FindFU(in.Op, c, cycle)
		if fu < 0 {
			return
		}
		copies := 0
		for _, a := range in.Args {
			// Arrival already treats constants as broadcast, so
			// they never count as copies.
			if t.Arrival(a, c) < 0 {
				copies++
			}
		}
		cc := cand{c: c, fu: fu, copies: copies, load: loads[c]}
		if best == nil ||
			cc.copies < best.copies ||
			(cc.copies == best.copies && cc.load < best.load) ||
			(cc.copies == best.copies && cc.load == best.load && cc.c < best.c) {
			best = &cc
		}
	}
	for c := 0; c < m.NumClusters; c++ {
		consider(c)
	}
	if best == nil {
		return -1, -1
	}
	return best.c, best.fu
}
