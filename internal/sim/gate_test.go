package sim_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// gateMemGraph is a store→load chain per bank with explicit memory-order
// edges, so the memory-order corruption classes have something to corrupt.
func gateMemGraph() *ir.Graph {
	g := ir.New("gatemem")
	for bank := 0; bank < 3; bank++ {
		addr := g.AddConst(int64(8 * bank))
		val := g.AddConst(int64(bank + 5))
		st := g.AddStore(bank, addr.ID, val.ID)
		ld := g.AddLoad(bank, addr.ID)
		g.AddMemEdge(st.ID, ld.ID)
		g.AddStore(3, addr.ID, g.Add(ir.Add, ld.ID, val.ID).ID)
	}
	return g
}

// orderedSched schedules g sequentially on cluster 0 of m, issuing the
// instructions in the given order at widely spaced cycles.
func orderedSched(g *ir.Graph, m *machine.Model, order []int) *schedule.Schedule {
	s := schedule.New(g, m)
	for pos, id := range order {
		in := g.Instrs[id]
		lat, _ := m.InstrLatency(in, 0)
		s.Placements[id] = schedule.Placement{Cluster: 0, FU: m.FirstFU(in.Op), Start: 10 * (pos + 1), Latency: lat}
	}
	return s
}

type gateCase struct {
	name   string
	cand   *schedule.Schedule
	g      *ir.Graph
	m      *machine.Model
	verify bool
	want   error // nil, sim.ErrIllegal or sim.ErrWrongAnswer
}

// TestGate pins the gate's contract: every schedule corruption is rejected
// as illegal whether or not simulation is asked for, a legal schedule that
// computes the wrong answer is rejected as a wrong answer only when it is,
// and an accepted schedule is bound to the pristine graph and machine in
// slices of its own.
func TestGate(t *testing.T) {
	var cases []gateCase
	applied := map[string]int{}
	for _, m := range []*machine.Model{machine.Raw(4), machine.Chorus(4)} {
		for _, g := range []*ir.Graph{bench.RandomLayered(80, 8, 4, 1), gateMemGraph()} {
			// Rungs schedule a private clone; the gate must rebind to g.
			base, err := robust.ListRung(m).Run(context.Background(), g.Clone())
			if err != nil {
				t.Fatalf("list schedule for %s on %s: %v", g.Name, m.Name, err)
			}
			cases = append(cases,
				gateCase{g.Name + "/" + m.Name + "/legal", base, g, m, true, nil},
				gateCase{g.Name + "/" + m.Name + "/short", &schedule.Schedule{Placements: base.Placements[1:]}, g, m, false, sim.ErrIllegal})
			for _, class := range faultinject.ScheduleClasses() {
				for seed := int64(0); seed < 4; seed++ {
					mut, _, ok := faultinject.MutateSchedule(base, class, seed)
					if !ok {
						continue
					}
					applied[class]++
					for _, verify := range []bool{false, true} {
						cases = append(cases, gateCase{g.Name + "/" + m.Name + "/" + class, mut, g, m, verify, sim.ErrIllegal})
					}
				}
			}
		}
	}
	for _, class := range faultinject.ScheduleClasses() {
		if applied[class] == 0 {
			t.Errorf("class %s never applied", class)
		}
	}

	// Two stores to one location with no ordering edge: both orders are
	// legal, only program order computes the reference answer.
	m := machine.SingleVLIW()
	g := ir.New("underconstrained")
	a0 := g.AddConst(0)
	c1 := g.AddConst(1)
	c2 := g.AddConst(2)
	s0 := g.AddStore(0, a0.ID, c1.ID)
	s1 := g.AddStore(0, a0.ID, c2.ID)
	good := orderedSched(g, m, []int{a0.ID, c1.ID, c2.ID, s0.ID, s1.ID})
	bad := orderedSched(g, m, []int{a0.ID, c1.ID, c2.ID, s1.ID, s0.ID})
	cases = append(cases,
		gateCase{"wrong-answer/verify", bad, g, m, true, sim.ErrWrongAnswer},
		gateCase{"wrong-answer/no-verify", bad, g, m, false, nil},
		gateCase{"program-order/verify", good, g, m, true, nil})

	for _, c := range cases {
		got, err := sim.Gate(c.cand, c.g, c.m, c.verify, nil)
		if c.want != nil {
			other := sim.ErrWrongAnswer
			if c.want == sim.ErrWrongAnswer {
				other = sim.ErrIllegal
			}
			if !errors.Is(err, c.want) || errors.Is(err, other) || got != nil {
				t.Errorf("%s (verify=%v): got %v, %v; want a rejection classed %v", c.name, c.verify, got, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s (verify=%v): rejected: %v", c.name, c.verify, err)
			continue
		}
		if got.Graph != c.g || got.Machine != c.m {
			t.Errorf("%s: accepted schedule is not bound to the pristine graph and machine", c.name)
		}
		if &got.Placements[0] == &c.cand.Placements[0] {
			t.Errorf("%s: accepted placements share the candidate's backing array", c.name)
		}
		if len(got.Comms) != len(c.cand.Comms) || len(got.Comms) > 0 && &got.Comms[0] == &c.cand.Comms[0] {
			t.Errorf("%s: accepted comms are not a private copy of the candidate's", c.name)
		}
	}
}
