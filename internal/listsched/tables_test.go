package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// tableOps is the reservation-table surface shared by Tables and the
// hash-map reference refTables.
type tableOps interface {
	Schedule() *schedule.Schedule
	FUFree(cluster, fu, cycle int) bool
	FindFU(op ir.Op, cluster, cycle int) int
	Place(i, cluster, fu, start int)
	Arrival(v, cluster int) int
	ReadyOnHome(v int) int
	ProbeRoute(v, cluster int) int
	Route(v, cluster int) int
	EarliestStart(i, cluster int, commit bool) int
}

// crossbarPorts is a hand-built crossbar with two send and three receive
// ports per cluster and no transfer unit, so injection is limited by the
// send ports alone.
func crossbarPorts() *machine.Model {
	m := machine.Chorus(4)
	m.Name = "xbar-s2r3"
	m.FUs = []machine.FUKind{machine.KindIntALU, machine.KindIntMem, machine.KindFloat}
	m.SendPorts, m.RecvPorts = 2, 3
	return m
}

func diffMachines() []*machine.Model {
	return []*machine.Model{machine.Chorus(2), machine.Chorus(4), machine.Raw(4), machine.Raw(16), crossbarPorts()}
}

// memChain builds a long load/store chain: each step loads a cell, folds
// it into a running sum and stores the previous sum back. Memory edges
// order every access after the previous store to its bank and each store
// after the load before it, which binds because nothing else makes the
// store wait for the load. Memory ops are preplaced on their bank's owner
// so the graph is legal on Raw.
func memChain(n, clusters int) *ir.Graph {
	g := ir.New("memchain")
	addr := g.AddConst(0).ID
	acc := g.AddConst(1).ID
	lastStore := make([]int, clusters)
	for b := range lastStore {
		lastStore[b] = -1
	}
	for k := 0; k < n; k++ {
		b := k % clusters
		ld := g.AddLoad(b, addr)
		ld.Home = b
		st := g.AddStore(b, addr, acc)
		st.Home = b
		acc = g.Add(ir.Add, ld.ID, acc).ID
		if p := lastStore[b]; p >= 0 {
			g.AddMemEdge(p, ld.ID)
			g.AddMemEdge(p, st.ID)
		}
		g.AddMemEdge(ld.ID, st.ID)
		lastStore[b] = st.ID
	}
	return g
}

// TestEarliestStartMemoryChainSchedule pins list schedules of a graph whose
// ordering is carried mostly by memory edges. The fingerprints were frozen
// from the implementation that scanned every memory edge of the graph per
// EarliestStart call.
func TestEarliestStartMemoryChainSchedule(t *testing.T) {
	want := map[string]string{
		"vliw4": "0146b4948badd5951da6e8550fe8257d56501db131f6cc5d14a8bec3db906284",
		"raw4":  "b9203d96f6c2caca0e7f4275699ce9e6a7c7b982755797c12d640e496ff860b2",
	}
	for _, m := range []*machine.Model{machine.Chorus(4), machine.Raw(4)} {
		g := memChain(300, m.NumClusters)
		if len(g.MemEdges()) < 800 {
			t.Fatalf("memChain has %d memory edges, want a long chain", len(g.MemEdges()))
		}
		assign := make([]int, g.Len())
		for i, in := range g.Instrs {
			assign[i] = i % m.NumClusters
			if in.Preplaced() {
				assign[i] = in.Home
			}
		}
		s := mustRun(t, g, m, Options{Assignment: assign})
		if got := s.Fingerprint(); got != want[m.Name] {
			t.Errorf("%s: fingerprint %s, want %s", m.Name, got, want[m.Name])
		}
	}
}

// legalClusters lists the clusters instruction i may be placed on.
func legalClusters(g *ir.Graph, m *machine.Model, i int) []int {
	in := g.Instrs[i]
	var cs []int
	for c := 0; c < m.NumClusters; c++ {
		if in.Preplaced() && c != in.Home {
			continue
		}
		if _, ok := m.InstrLatency(in, c); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// diffDrive builds one schedule through Tables and refTables side by side
// with the same random sequence of probes, routes and placements, failing
// on the first return value that differs. far makes occasional placements
// jump thousands of cycles past every reserved row.
func diffDrive(t *testing.T, g *ir.Graph, m *machine.Model, seed int64, far bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sides := [2]tableOps{NewTables(g, m), newRefTables(g, m)}
	call := func(what string, f func(x tableOps) int) int {
		t.Helper()
		a, b := f(sides[0]), f(sides[1])
		if a != b {
			t.Fatalf("%s: dense %d, reference %d", what, a, b)
		}
		return a
	}
	boolInt := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	var values []int
	maxStart := 0
	for i := range g.Instrs {
		in := g.Instrs[i]
		cs := legalClusters(g, m, i)
		if len(cs) == 0 {
			t.Fatalf("instr %d has no legal cluster on %s", i, m.Name)
		}
		c := cs[rng.Intn(len(cs))]
		for k := rng.Intn(5); k > 0 && len(values) > 0; k-- {
			v, d := values[rng.Intn(len(values))], rng.Intn(m.NumClusters)
			tag := fmt.Sprintf("instr %d: value %d to cluster %d", i, v, d)
			call("Arrival "+tag, func(x tableOps) int { return x.Arrival(v, d) })
			call("ProbeRoute "+tag, func(x tableOps) int { return x.ProbeRoute(v, d) })
			if rng.Intn(3) == 0 {
				call("Route "+tag, func(x tableOps) int { return x.Route(v, d) })
			}
		}
		tag := fmt.Sprintf("instr %d on cluster %d", i, c)
		start := call("EarliestStart probe "+tag, func(x tableOps) int { return x.EarliestStart(i, c, false) })
		start += rng.Intn(3)
		if far && rng.Intn(40) == 0 {
			start += 2000 + rng.Intn(2000)
		}
		if est := call("EarliestStart commit "+tag, func(x tableOps) int { return x.EarliestStart(i, c, true) }); est > start {
			start = est
		}
		fu := -1
		for limit := start + 64; fu < 0; start++ {
			if start > limit {
				t.Fatalf("%s: no free unit near cycle %d", tag, start)
			}
			s := start
			fu = call(fmt.Sprintf("FindFU %s cycle %d", tag, s), func(x tableOps) int { return x.FindFU(in.Op, c, s) })
			for u := range m.FUs {
				call(fmt.Sprintf("FUFree %s fu %d cycle %d", tag, u, s), func(x tableOps) int { return boolInt(x.FUFree(c, u, s)) })
			}
		}
		start--
		for _, x := range sides {
			x.Place(i, c, fu, start)
		}
		call("ReadyOnHome "+tag, func(x tableOps) int { return x.ReadyOnHome(i) })
		if start > maxStart {
			maxStart = start
		}
		if in.Op.HasResult() {
			values = append(values, i)
		}
	}
	if far && maxStart < 2000 {
		t.Fatalf("far run never placed past cycle 2000 (max start %d)", maxStart)
	}
	dense, ref := sides[0].Schedule(), sides[1].Schedule()
	dense.SortComms()
	ref.SortComms()
	if a, b := dense.Fingerprint(), ref.Fingerprint(); a != b {
		t.Fatalf("schedule fingerprints differ: dense %s, reference %s", a, b)
	}
	if err := dense.Validate(); err != nil {
		t.Fatalf("differential schedule is illegal: %v", err)
	}
}

// TestTablesMatchReference is the dense-versus-hash-map differential: the
// same random operation sequence must get the same answer from both tables
// at every step and end in the same schedule.
func TestTablesMatchReference(t *testing.T) {
	for _, m := range diffMachines() {
		graphs := []*ir.Graph{
			bench.RandomLayered(300, 300/12+4, m.NumClusters, 1),
			bench.RandomLayered(300, 8, m.NumClusters, 2),
			memChain(60, m.NumClusters),
		}
		for gi, g := range graphs {
			for seed := int64(1); seed <= 3; seed++ {
				far := seed == 3
				t.Run(fmt.Sprintf("%s/g%d/seed%d", m.Name, gi, seed), func(t *testing.T) {
					diffDrive(t, g, m, seed, far)
				})
			}
		}
	}
}
