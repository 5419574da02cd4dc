package schedule_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
)

// gateMachines are the machines the differential covers: both crossbar
// sizes and both mesh sizes the paper evaluates.
var gateMachines = []string{"vliw2", "vliw4", "raw4", "raw16"}

func mustMachine(t *testing.T, name string) *machine.Model {
	t.Helper()
	m, err := machine.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func listSchedule(t *testing.T, g *ir.Graph, m *machine.Model) *schedule.Schedule {
	t.Helper()
	s, err := robust.ListRung(m).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("list schedule %s on %s: %v", g.Name, m.Name, err)
	}
	return s
}

func cloneSched(s *schedule.Schedule) *schedule.Schedule {
	return &schedule.Schedule{
		Graph:      s.Graph,
		Machine:    s.Machine,
		Placements: append([]schedule.Placement(nil), s.Placements...),
		Comms:      append([]schedule.Comm(nil), s.Comms...),
	}
}

// portOverflow reports the port-overflow class of a Validate message ("sends"
// or "receives"), or "" for any other message.
func portOverflow(msg string) string {
	if !strings.Contains(msg, "values at cycle") {
		return ""
	}
	if strings.Contains(msg, " sends ") {
		return "sends"
	}
	return "receives"
}

// agree checks the dense gate against the map reference on one schedule:
// the same accept/reject, and the same message, except that a port
// overflow, which the reference names in map order, must only agree on its
// class. It returns whether the schedule was accepted.
func agree(t *testing.T, label string, s *schedule.Schedule) bool {
	t.Helper()
	got, want := s.Validate(), s.RefValidate()
	switch {
	case got == nil && want == nil:
		return true
	case got == nil || want == nil:
		t.Fatalf("%s: dense gate says %v, reference says %v", label, got, want)
	case portOverflow(want.Error()) != "":
		if portOverflow(got.Error()) != portOverflow(want.Error()) {
			t.Fatalf("%s: port overflow class differs:\ndense: %v\nref:   %v", label, got, want)
		}
	case got.Error() != want.Error():
		t.Fatalf("%s: messages differ:\ndense: %v\nref:   %v", label, got, want)
	}
	return false
}

// memGraph is a store→load chain per bank with explicit memory-order
// edges, which the kernels lack, so the memory-order class has something
// to corrupt.
func memGraph() *ir.Graph {
	g := ir.New("memchain")
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

// TestValidateMatchesReferenceOnCorruptions runs every faultinject
// corruption class over every kernel on each machine and requires the
// dense gate to reject exactly as the map reference does.
func TestValidateMatchesReferenceOnCorruptions(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	applied := map[string]int{}
	for _, name := range gateMachines {
		m := mustMachine(t, name)
		graphs := []*ir.Graph{memGraph()}
		for _, k := range bench.All() {
			graphs = append(graphs, k.Build(m.NumClusters))
		}
		for _, g := range graphs {
			base := listSchedule(t, g, m)
			if !agree(t, g.Name+"/"+name+"/legal", base) {
				t.Fatalf("%s/%s: list schedule rejected: %v", g.Name, name, base.Validate())
			}
			for _, class := range faultinject.ScheduleClasses() {
				for seed := int64(0); seed < seeds; seed++ {
					mut, _, ok := faultinject.MutateSchedule(base, class, seed)
					if !ok {
						continue
					}
					applied[class]++
					if agree(t, g.Name+"/"+name+"/"+class, mut) {
						t.Fatalf("%s/%s/%s: corruption accepted", g.Name, name, class)
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
}

// mutateField changes one field of one placement or comm: by a small
// delta, to a small cycle or cluster number, or to an extreme value.
func mutateField(rng *rand.Rand, s *schedule.Schedule) *schedule.Schedule {
	out := cloneSched(s)
	val := func(old int) int {
		switch rng.Intn(6) {
		case 0, 1:
			return old + rng.Intn(5) - 2
		case 2:
			return rng.Intn(8)
		case 3:
			return rng.Intn(64)
		case 4:
			return []int{-1, 1 << 40, -(1 << 40), math.MaxInt, math.MinInt}[rng.Intn(5)]
		}
		return old * 2
	}
	if len(out.Comms) == 0 || rng.Intn(2) == 0 {
		p := &out.Placements[rng.Intn(len(out.Placements))]
		switch rng.Intn(4) {
		case 0:
			p.Cluster = val(p.Cluster)
		case 1:
			p.FU = val(p.FU)
		case 2:
			p.Start = val(p.Start)
		default:
			p.Latency = val(p.Latency)
		}
		return out
	}
	c := &out.Comms[rng.Intn(len(out.Comms))]
	switch rng.Intn(5) {
	case 0:
		c.Value = val(c.Value)
	case 1:
		c.From = val(c.From)
	case 2:
		c.To = val(c.To)
	case 3:
		c.Depart = val(c.Depart)
		if rng.Intn(2) == 0 {
			c.Arrive = c.Depart + out.Machine.CommLatency(c.From, c.To)
		}
	default:
		c.Arrive = val(c.Arrive)
	}
	return out
}

// TestValidateMatchesReferenceOnMutations compares the two gates on random
// legal schedules (random layered DAGs, list-scheduled) and on random
// single-field mutations of them and of the kernels' schedules.
func TestValidateMatchesReferenceOnMutations(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(25))
	accepted, rejected := 0, 0
	for _, name := range gateMachines {
		m := mustMachine(t, name)
		var bases []*schedule.Schedule
		for seed := int64(1); seed <= 6; seed++ {
			n := 20 + rng.Intn(200)
			g := bench.RandomLayered(n, 2+rng.Intn(12), m.NumClusters, seed)
			bases = append(bases, listSchedule(t, g, m))
		}
		bases = append(bases, listSchedule(t, memGraph(), m))
		for _, kn := range []string{"mxm", "fir", "cholesky", "sha"} {
			k, _ := bench.ByName(kn)
			bases = append(bases, listSchedule(t, k.Build(m.NumClusters), m))
		}
		for bi, base := range bases {
			if !agree(t, name+"/legal", base) {
				t.Fatalf("%s base %d rejected", name, bi)
			}
			for trial := 0; trial < trials; trial++ {
				mut := mutateField(rng, base)
				if badTarget(mut) {
					// The reference has no range check on To: it accepts
					// a comm to a missing cluster on a crossbar and
					// indexes the route table out of range on a mesh.
					if mut.Validate() == nil {
						t.Fatalf("%s: comm to a missing cluster accepted", name)
					}
					continue
				}
				if agree(t, name+"/mutation", mut) {
					accepted++
				} else {
					rejected++
				}
			}
		}
	}
	t.Logf("%d mutations accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Errorf("mutations not informative: %d accepted, %d rejected", accepted, rejected)
	}
}

func badTarget(s *schedule.Schedule) bool {
	for _, c := range s.Comms {
		if c.To < 0 || c.To >= s.Machine.NumClusters {
			return true
		}
	}
	return false
}

// TestValidateRejectsCommToMissingCluster pins the range check on a comm's
// destination, which the map version lacked.
func TestValidateRejectsCommToMissingCluster(t *testing.T) {
	for _, name := range []string{"vliw4", "raw16"} {
		m := mustMachine(t, name)
		s := listSchedule(t, bench.RandomLayered(60, 6, m.NumClusters, 3), m)
		if len(s.Comms) == 0 {
			t.Fatalf("%s: no comms to corrupt", name)
		}
		for _, to := range []int{-1, m.NumClusters, 99} {
			bad := cloneSched(s)
			bad.Comms[0].To = to
			err := bad.Validate()
			if err == nil || !strings.Contains(err.Error(), "comm 0 to cluster") {
				t.Errorf("%s: comm to cluster %d: %v", name, to, err)
			}
		}
	}
}

// TestValidatePortOverflowNamesLowestSlot pins the port-overflow report:
// with several overflowing (cycle, cluster) slots the lowest cycle, then
// the lowest cluster, is named, and send overflows come before receive
// overflows.
func TestValidatePortOverflowNamesLowestSlot(t *testing.T) {
	m := machine.Chorus(4) // one send and one receive port per cluster
	g := ir.New("ports")
	for c := 0; c < 4; c++ {
		g.AddConst(int64(c))
		g.AddConst(int64(c + 10))
	}
	s := schedule.New(g, m)
	for i := range s.Placements {
		s.Placements[i] = schedule.Placement{Cluster: i / 2, FU: i % 2, Start: 0, Latency: 1}
	}
	lat := m.CommLatency(0, 1)
	send := func(v, to, depart int) schedule.Comm {
		return schedule.Comm{Value: v, From: v / 2, To: to, Depart: depart, Arrive: depart + lat}
	}
	// Clusters 3 and 2 overflow their send port at cycle 5, cluster 1 at
	// cycle 9; each overflowing pair also lands on one receive port.
	s.Comms = []schedule.Comm{
		send(2, 0, 9), send(3, 0, 9),
		send(6, 0, 5), send(7, 1, 5),
		send(4, 0, 5), send(5, 1, 5),
	}
	mm := *m
	mm.SendPorts, mm.RecvPorts = 1, 1
	mm.FUs = append([]machine.FUKind(nil), m.FUs...)
	// Keep the transfer unit out of the way: the clash it would report
	// precedes the port check.
	for fu, k := range mm.FUs {
		if k == machine.KindXfer {
			mm.FUs[fu] = machine.KindIntALU
		}
	}
	s.Machine = &mm
	for run := 0; run < 20; run++ {
		err := s.Validate()
		if err == nil || err.Error() != "schedule: cluster 2 sends 2 values at cycle 5 (limit 1)" {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	// With sends within budget, the lowest receive overflow is named.
	mm.SendPorts = 2
	for run := 0; run < 20; run++ {
		err := s.Validate()
		if err == nil || err.Error() != "schedule: cluster 0 receives 2 values at cycle "+strconv.Itoa(5+lat)+" (limit 1)" {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// allocCost returns the mean allocations and bytes of one f call.
func allocCost(f func()) (allocs, bytes float64) {
	const runs = 20
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestValidateAllocationIgnoresCycleGaps: the gate's tables grow with the
// number of events, never with the largest cycle, so a legal schedule with
// a 1<<40-cycle gap validates and a forged Start of 1<<40 is rejected,
// both within a small fixed allocation ceiling.
func TestValidateAllocationIgnoresCycleGaps(t *testing.T) {
	const gap = 1 << 40
	const maxAllocs, maxBytes = 16, 8 << 10
	for _, name := range []string{"vliw4", "raw16"} {
		m := mustMachine(t, name)
		g := ir.New("gap")
		a := g.AddConst(1)
		b := g.Add(ir.Neg, a.ID)
		g.Add(ir.Not, b.ID)
		s := schedule.New(g, m)
		lat := m.CommLatency(0, 1)
		s.Placements[0] = schedule.Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
		s.Placements[1] = schedule.Placement{Cluster: 0, FU: 0, Start: gap, Latency: 1}
		s.Placements[2] = schedule.Placement{Cluster: 1, FU: 0, Start: gap + 1 + lat, Latency: 1}
		s.Comms = []schedule.Comm{{Value: 1, From: 0, To: 1, Depart: gap + 1, Arrive: gap + 1 + lat}}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: legal gapped schedule rejected: %v", name, err)
		}
		if err := s.RefValidate(); err != nil {
			t.Fatalf("%s: reference rejects the gapped schedule: %v", name, err)
		}
		if allocs, bytes := allocCost(func() { _ = s.Validate() }); allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: legal gapped schedule costs %.0f allocs, %.0f bytes", name, allocs, bytes)
		}
		forged := cloneSched(s)
		forged.Placements[0].Start = gap + 5 // the operand of instr 1 is now late
		want := forged.RefValidate()
		if want == nil {
			t.Fatalf("%s: reference accepts the forged record", name)
		}
		if err := forged.Validate(); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: forged record: dense %v, reference %v", name, err, want)
		}
		if allocs, bytes := allocCost(func() { _ = forged.Validate() }); allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: forged record costs %.0f allocs, %.0f bytes", name, allocs, bytes)
		}
	}
}
