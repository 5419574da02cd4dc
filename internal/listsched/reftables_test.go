package listsched

// refTables is the hash-map reservation table the dense Tables replaced,
// kept verbatim (apart from names) as the reference side of the
// differential test in tables_test.go. It is deliberately simple: every
// reservation is a map entry and routeSlot walks one cycle at a time.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

type refTables struct {
	g *ir.Graph
	m *machine.Model

	sched *schedule.Schedule

	placed []bool
	// arrival[v] maps cluster -> first cycle value v is usable there.
	arrival []map[int]int

	fuBusy map[refFUSlot]bool
	send   map[refPortSlot]int
	recv   map[refPortSlot]int
	links  map[refLinkSlot]bool
	xfer   int
}

type refFUSlot struct{ cluster, fu, cycle int }
type refPortSlot struct{ cluster, cycle int }
type refLinkSlot struct {
	link  machine.Link
	cycle int
}

func newRefTables(g *ir.Graph, m *machine.Model) *refTables {
	g.Seal()
	t := &refTables{
		g:       g,
		m:       m,
		sched:   schedule.New(g, m),
		placed:  make([]bool, g.Len()),
		arrival: make([]map[int]int, g.Len()),
		fuBusy:  make(map[refFUSlot]bool),
		send:    make(map[refPortSlot]int),
		recv:    make(map[refPortSlot]int),
		links:   make(map[refLinkSlot]bool),
		xfer:    m.XferFU(),
	}
	for i := range t.arrival {
		t.arrival[i] = make(map[int]int)
	}
	return t
}

// Schedule returns the schedule under construction. Callers must not mutate
// it directly; it is complete once every instruction is placed.
func (t *refTables) Schedule() *schedule.Schedule { return t.sched }

// FUFree reports whether the functional unit is unreserved at the cycle.
func (t *refTables) FUFree(cluster, fu, cycle int) bool {
	return !t.fuBusy[refFUSlot{cluster, fu, cycle}]
}

// FindFU returns a free functional unit on the cluster able to issue the
// opcode at the cycle, or -1.
func (t *refTables) FindFU(op ir.Op, cluster, cycle int) int {
	for fu := range t.m.FUs {
		if t.m.CanRunOn(op, fu) && t.FUFree(cluster, fu, cycle) {
			return fu
		}
	}
	return -1
}

// Place commits instruction i to (cluster, fu, start). It panics on
// resource conflicts or illegal placements: callers are expected to have
// checked with FindFU/OperandsArriveBy first, so a violation is a scheduler
// bug, not an input error.
func (t *refTables) Place(i, cluster, fu, start int) {
	if t.placed[i] {
		panic(fmt.Sprintf("listsched: instruction %d placed twice", i))
	}
	in := t.g.Instrs[i]
	lat, ok := t.m.InstrLatency(in, cluster)
	if !ok {
		panic(fmt.Sprintf("listsched: instruction %d illegal on cluster %d", i, cluster))
	}
	key := refFUSlot{cluster, fu, start}
	if t.fuBusy[key] {
		panic(fmt.Sprintf("listsched: FU conflict placing %d on cluster %d fu %d cycle %d", i, cluster, fu, start))
	}
	t.fuBusy[key] = true
	t.placed[i] = true
	t.sched.Placements[i] = schedule.Placement{Cluster: cluster, FU: fu, Start: start, Latency: lat}
	if in.Op.HasResult() {
		t.noteArrival(i, cluster, start+lat)
	}
}

func (t *refTables) noteArrival(v, cluster, cycle int) {
	if cur, ok := t.arrival[v][cluster]; !ok || cycle < cur {
		t.arrival[v][cluster] = cycle
	}
}

// Arrival returns the first cycle value v is usable on the cluster, or -1
// if it is not there and no communication has been scheduled. Constants
// follow the immediate-broadcast rule (see schedule.ArrivalOn): once
// materialised they are usable everywhere.
func (t *refTables) Arrival(v, cluster int) int {
	if t.placed[v] && t.g.Instrs[v].Op.IsConst() {
		return t.ReadyOnHome(v)
	}
	if a, ok := t.arrival[v][cluster]; ok {
		return a
	}
	return -1
}

// ReadyOnHome returns the cycle value v is ready on its producing cluster.
// v must already be placed.
func (t *refTables) ReadyOnHome(v int) int {
	return t.sched.Placements[v].Ready()
}

// routeSlot finds the earliest depart >= from such that the send port, the
// transfer unit (if any), every link of the dimension-ordered route and the
// receive port are all free.
func (t *refTables) routeSlot(src, dst, from int) (depart, arrive int) {
	lat := t.m.CommLatency(src, dst)
	route := t.m.Route(src, dst)
	for d := from; ; d++ {
		if t.send[refPortSlot{src, d}] >= t.m.SendPorts {
			continue
		}
		if t.xfer >= 0 && !t.FUFree(src, t.xfer, d) {
			continue
		}
		if t.recv[refPortSlot{dst, d + lat}] >= t.m.RecvPorts {
			continue
		}
		blocked := false
		for hop, l := range route {
			if t.links[refLinkSlot{l, d + hop}] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		return d, d + lat
	}
}

// ProbeRoute returns the arrival cycle value v would have on the cluster if
// a communication were scheduled now, without reserving anything. If the
// value is already available there it returns the existing arrival.
// v must be placed.
func (t *refTables) ProbeRoute(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	src := t.sched.Placements[v].Cluster
	_, arrive := t.routeSlot(src, cluster, t.ReadyOnHome(v))
	return arrive
}

// Route ensures value v will be usable on the cluster, scheduling a
// communication at the earliest feasible departure if needed, and returns
// the arrival cycle. v must be placed. Constants are never routed
// (immediate-broadcast rule).
func (t *refTables) Route(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	if !t.placed[v] {
		panic(fmt.Sprintf("listsched: routing unplaced value %d", v))
	}
	src := t.sched.Placements[v].Cluster
	depart, arrive := t.routeSlot(src, cluster, t.ReadyOnHome(v))
	t.send[refPortSlot{src, depart}]++
	t.recv[refPortSlot{cluster, arrive}]++
	for hop, l := range t.m.Route(src, cluster) {
		t.links[refLinkSlot{l, depart + hop}] = true
	}
	if t.xfer >= 0 {
		t.fuBusy[refFUSlot{src, t.xfer, depart}] = true
	}
	t.sched.Comms = append(t.sched.Comms, schedule.Comm{Value: v, From: src, To: cluster, Depart: depart, Arrive: arrive})
	t.noteArrival(v, cluster, arrive)
	return arrive
}

// EarliestStart returns the first cycle instruction i could issue on the
// cluster given current arrivals, routing remote operands eagerly (commit
// controls whether routes are reserved or only probed). All of i's
// predecessors must be placed.
func (t *refTables) EarliestStart(i, cluster int, commit bool) int {
	est := 0
	in := t.g.Instrs[i]
	for _, a := range in.Args {
		var arr int
		if commit {
			arr = t.Route(a, cluster)
		} else {
			arr = t.ProbeRoute(a, cluster)
		}
		if arr > est {
			est = arr
		}
	}
	// Memory-order predecessors impose lockstep completion ordering but
	// move no value.
	for _, e := range t.g.MemEdges() {
		if e[1] == i {
			if r := t.ReadyOnHome(e[0]); r > est {
				est = r
			}
		}
	}
	return est
}
