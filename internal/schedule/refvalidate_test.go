package schedule

// refValidate is the hash-map Validate the dense gate replaced, kept
// verbatim (apart from its name) as the reference side of the differential
// tests in validate_test.go. It is deliberately simple: every occupancy
// slot is a map entry and every operand's arrival scans all comms through
// ArrivalOn. Its port-overflow report is whichever overflowing slot map
// iteration reaches first, so the differential compares only the error
// class there.

import (
	"fmt"

	"repro/internal/machine"
)

func (s *Schedule) refValidate() error {
	g, m := s.Graph, s.Machine
	if len(s.Placements) != g.Len() {
		return fmt.Errorf("schedule: %d placements for %d instructions", len(s.Placements), g.Len())
	}
	// Placement sanity.
	for i, p := range s.Placements {
		in := g.Instrs[i]
		if p.Cluster < 0 || p.Cluster >= m.NumClusters {
			return fmt.Errorf("schedule: instr %d on cluster %d of %d", i, p.Cluster, m.NumClusters)
		}
		if p.Start < 0 {
			return fmt.Errorf("schedule: instr %d starts at %d", i, p.Start)
		}
		if !m.CanRunOn(in.Op, p.FU) {
			return fmt.Errorf("schedule: instr %d (%v) on incompatible FU %d", i, in.Op, p.FU)
		}
		want, ok := m.InstrLatency(in, p.Cluster)
		if !ok {
			return fmt.Errorf("schedule: instr %d (%v bank %d) illegal on cluster %d", i, in.Op, in.Bank, p.Cluster)
		}
		if p.Latency != want {
			return fmt.Errorf("schedule: instr %d latency %d, want %d", i, p.Latency, want)
		}
		if in.Preplaced() && p.Cluster != in.Home {
			return fmt.Errorf("schedule: preplaced instr %d on cluster %d, home %d", i, p.Cluster, in.Home)
		}
	}
	// FU occupancy, including transfer-unit use by communications.
	type fuSlot struct{ cluster, fu, cycle int }
	fuBusy := make(map[fuSlot]int)
	for i, p := range s.Placements {
		key := fuSlot{p.Cluster, p.FU, p.Start}
		if prev, clash := fuBusy[key]; clash {
			return fmt.Errorf("schedule: instrs %d and %d share cluster %d FU %d at cycle %d", prev, i, p.Cluster, p.FU, p.Start)
		}
		fuBusy[key] = i
	}
	xfer := m.XferFU()
	// Port occupancy and communication legality.
	type portSlot struct{ cluster, cycle int }
	sendUse := make(map[portSlot]int)
	recvUse := make(map[portSlot]int)
	for ci, c := range s.Comms {
		if c.Value < 0 || c.Value >= g.Len() {
			return fmt.Errorf("schedule: comm %d moves unknown value %d", ci, c.Value)
		}
		if !g.Instrs[c.Value].Op.HasResult() {
			return fmt.Errorf("schedule: comm %d moves resultless instr %d", ci, c.Value)
		}
		p := s.Placements[c.Value]
		if c.From != p.Cluster {
			return fmt.Errorf("schedule: comm %d departs cluster %d but value %d lives on %d", ci, c.From, c.Value, p.Cluster)
		}
		if c.From == c.To {
			return fmt.Errorf("schedule: comm %d from cluster %d to itself", ci, c.From)
		}
		if c.Depart < p.Ready() {
			return fmt.Errorf("schedule: comm %d departs at %d before value %d ready at %d", ci, c.Depart, c.Value, p.Ready())
		}
		if want := c.Depart + m.CommLatency(c.From, c.To); c.Arrive != want {
			return fmt.Errorf("schedule: comm %d arrives at %d, want %d", ci, c.Arrive, want)
		}
		sendUse[portSlot{c.From, c.Depart}]++
		recvUse[portSlot{c.To, c.Arrive}]++
		if xfer >= 0 {
			key := fuSlot{c.From, xfer, c.Depart}
			if prev, clash := fuBusy[key]; clash {
				return fmt.Errorf("schedule: comm %d and op %d share transfer unit on cluster %d at cycle %d", ci, prev, c.From, c.Depart)
			}
			fuBusy[key] = -1 - ci
		}
	}
	for slot, n := range sendUse {
		if n > m.SendPorts {
			return fmt.Errorf("schedule: cluster %d sends %d values at cycle %d (limit %d)", slot.cluster, n, slot.cycle, m.SendPorts)
		}
	}
	for slot, n := range recvUse {
		if n > m.RecvPorts {
			return fmt.Errorf("schedule: cluster %d receives %d values at cycle %d (limit %d)", slot.cluster, n, slot.cycle, m.RecvPorts)
		}
	}
	// Link-level occupancy on mesh machines: a communication's head word
	// crosses link i of its dimension-ordered route at cycle Depart+i,
	// and each link carries one word per cycle.
	if m.LinkLevel() {
		type linkSlot struct {
			link  machine.Link
			cycle int
		}
		linkUse := make(map[linkSlot]int)
		for ci, c := range s.Comms {
			for hop, l := range m.Route(c.From, c.To) {
				key := linkSlot{l, c.Depart + hop}
				linkUse[key]++
				if linkUse[key] > 1 {
					return fmt.Errorf("schedule: comm %d: link %d->%d carries two words at cycle %d",
						ci, l.From, l.To, c.Depart+hop)
				}
			}
		}
	}
	// Dependence timing.
	for i := range g.Instrs {
		p := s.Placements[i]
		for _, a := range g.Instrs[i].Args {
			arr := s.ArrivalOn(a, p.Cluster)
			if arr < 0 {
				return fmt.Errorf("schedule: operand %%%d of instr %d never arrives on cluster %d", a, i, p.Cluster)
			}
			if arr > p.Start {
				return fmt.Errorf("schedule: instr %d issues at %d before operand %%%d arrives at %d", i, p.Start, a, arr)
			}
		}
	}
	for _, e := range g.MemEdges() {
		pre, post := s.Placements[e[0]], s.Placements[e[1]]
		if post.Start < pre.Ready() {
			return fmt.Errorf("schedule: memory edge (%d,%d) violated: %d issues at %d before %d completes at %d",
				e[0], e[1], e[1], post.Start, e[0], pre.Ready())
		}
	}
	return nil
}
