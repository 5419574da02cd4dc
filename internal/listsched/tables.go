// Package listsched implements the cycle-driven list scheduler shared by
// every back-end: given a cluster assignment and an instruction priority, it
// produces a legal space-time schedule with communication operations
// inserted on demand. The resource-reservation machinery (Tables) is
// exported so that schedulers which choose clusters during scheduling (UAS)
// can reuse the exact same occupancy model.
package listsched

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Tables tracks resource reservations and value arrivals while a schedule is
// being built. All schedulers in this repository build schedules through
// Tables, so they compete under identical rules.
//
// Reservations live in dense cycle-indexed rows grown on demand; a read
// past the last row means free. Nothing is ever released, which is what
// makes the injection skip index (see nextInject) exact.
type Tables struct {
	g *ir.Graph
	m *machine.Model

	sched *schedule.Schedule

	nc, nf int // clusters, functional units per cluster
	nl     int // dense mesh-link IDs (see linkID); 0 on crossbars
	xfer   int

	placed []bool
	// arrival[v*nc+c] is the first cycle value v is usable on cluster c,
	// or -1 if it is not there.
	arrival []int32
	// resume[v*nc+c] is the departure the last route search for value v
	// to cluster c found. Every earlier departure was infeasible then and
	// stays so, because reservations are never released; the next search
	// for the pair starts there.
	resume []int32

	// rows is the number of cycles every row below covers.
	rows   int
	fuBusy []bool  // (cycle*nc+cluster)*nf + fu
	send   []int32 // cycle*nc + cluster
	recv   []int32 // cycle*nc + cluster
	links  []bool  // cycle*nl + linkID
	// inject[cycle*nc+c] is cycle itself while cluster c may still be
	// able to inject a value then, and otherwise a later cycle no later
	// than the next one at which it may: a path-compressed "next" array.
	inject []int32
}

// NewTables returns empty reservation tables building a schedule for g on m.
func NewTables(g *ir.Graph, m *machine.Model) *Tables {
	g.Seal()
	t := &Tables{
		g:       g,
		m:       m,
		sched:   schedule.New(g, m),
		nc:      m.NumClusters,
		nf:      len(m.FUs),
		xfer:    m.XferFU(),
		placed:  make([]bool, g.Len()),
		arrival: make([]int32, g.Len()*m.NumClusters),
		resume:  make([]int32, g.Len()*m.NumClusters),
	}
	if m.LinkLevel() {
		t.nl = 4 * m.MeshW * m.MeshH
	}
	for i := range t.arrival {
		t.arrival[i] = -1
	}
	return t
}

// grow extends every cycle-indexed row to cover the cycle, at least
// doubling so a schedule pays amortised constant time per cycle.
func (t *Tables) grow(cycle int) {
	if cycle < t.rows {
		return
	}
	rows := max(2*t.rows, cycle+1, 64)
	add := rows - t.rows
	t.fuBusy = append(t.fuBusy, make([]bool, add*t.nc*t.nf)...)
	t.send = append(t.send, make([]int32, add*t.nc)...)
	t.recv = append(t.recv, make([]int32, add*t.nc)...)
	t.links = append(t.links, make([]bool, add*t.nl)...)
	for d := t.rows; d < rows; d++ {
		for c := 0; c < t.nc; c++ {
			t.inject = append(t.inject, int32(d))
		}
	}
	t.rows = rows
}

// Schedule returns the schedule under construction. Callers must not mutate
// it directly; it is complete once every instruction is placed.
func (t *Tables) Schedule() *schedule.Schedule { return t.sched }

// FUFree reports whether the functional unit is unreserved at the cycle.
func (t *Tables) FUFree(cluster, fu, cycle int) bool {
	return cycle >= t.rows || !t.fuBusy[(cycle*t.nc+cluster)*t.nf+fu]
}

// FindFU returns a free functional unit on the cluster able to issue the
// opcode at the cycle, or -1.
func (t *Tables) FindFU(op ir.Op, cluster, cycle int) int {
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
func (t *Tables) Place(i, cluster, fu, start int) {
	if t.placed[i] {
		panic(fmt.Sprintf("listsched: instruction %d placed twice", i))
	}
	in := t.g.Instrs[i]
	lat, ok := t.m.InstrLatency(in, cluster)
	if !ok || cluster < 0 || cluster >= t.nc {
		panic(fmt.Sprintf("listsched: instruction %d illegal on cluster %d", i, cluster))
	}
	if fu < 0 || fu >= t.nf || start < 0 {
		panic(fmt.Sprintf("listsched: instruction %d placed on fu %d cycle %d", i, fu, start))
	}
	if !t.FUFree(cluster, fu, start) {
		panic(fmt.Sprintf("listsched: FU conflict placing %d on cluster %d fu %d cycle %d", i, cluster, fu, start))
	}
	t.grow(start)
	t.fuBusy[(start*t.nc+cluster)*t.nf+fu] = true
	if fu == t.xfer {
		t.blockInject(cluster, start)
	}
	t.placed[i] = true
	t.sched.Placements[i] = schedule.Placement{Cluster: cluster, FU: fu, Start: start, Latency: lat}
	if in.Op.HasResult() {
		t.noteArrival(i, cluster, start+lat)
	}
}

func (t *Tables) noteArrival(v, cluster, cycle int) {
	k := v*t.nc + cluster
	if cur := t.arrival[k]; cur < 0 || int32(cycle) < cur {
		t.arrival[k] = int32(cycle)
	}
}

// Arrival returns the first cycle value v is usable on the cluster, or -1
// if it is not there and no communication has been scheduled. Constants
// follow the immediate-broadcast rule (see schedule.ArrivalOn): once
// materialised they are usable everywhere.
func (t *Tables) Arrival(v, cluster int) int {
	if t.placed[v] && t.g.Instrs[v].Op.IsConst() {
		return t.ReadyOnHome(v)
	}
	return int(t.arrival[v*t.nc+cluster])
}

// ReadyOnHome returns the cycle value v is ready on its producing cluster.
// v must already be placed.
func (t *Tables) ReadyOnHome(v int) int {
	return t.sched.Placements[v].Ready()
}

// linkID numbers a mesh link by its source cluster and direction.
func (t *Tables) linkID(l machine.Link) int {
	switch l.To - l.From {
	case 1:
		return 4 * l.From
	case -1:
		return 4*l.From + 1
	case t.m.MeshW:
		return 4*l.From + 2
	}
	return 4*l.From + 3
}

// blockInject records that cluster c can no longer inject a value at the
// cycle: its send ports are full or its transfer unit is taken.
func (t *Tables) blockInject(c, cycle int) {
	if k := cycle*t.nc + c; t.inject[k] == int32(cycle) {
		t.inject[k] = int32(cycle + 1)
	}
}

// nextInject returns the first cycle >= d at which cluster c is not known
// to be unable to inject, compressing the path it followed. Reservations
// are never released, so a blocked cycle stays blocked and skipping it is
// exact.
func (t *Tables) nextInject(c, d int) int {
	r := d
	for r < t.rows {
		next := int(t.inject[r*t.nc+c])
		if next == r {
			break
		}
		r = next
	}
	for d < r {
		k := d*t.nc + c
		d = int(t.inject[k])
		t.inject[k] = int32(r)
	}
	return r
}

// routeSlot finds the earliest depart >= from such that the send port, the
// transfer unit (if any), every link of the dimension-ordered route and the
// receive port are all free. The skip index jumps over departures the
// source cannot inject at; every condition is still checked where it lands.
func (t *Tables) routeSlot(src, dst, from int) (depart, arrive int) {
	lat := t.m.CommLatency(src, dst)
	route := t.m.Route(src, dst)
	sendPorts, recvPorts := int32(t.m.SendPorts), int32(t.m.RecvPorts)
	for d := from; ; d++ {
		d = t.nextInject(src, d)
		if d < t.rows {
			k := d*t.nc + src
			if t.send[k] >= sendPorts {
				continue
			}
			if t.xfer >= 0 && t.fuBusy[k*t.nf+t.xfer] {
				continue
			}
		}
		if a := d + lat; a < t.rows && t.recv[a*t.nc+dst] >= recvPorts {
			continue
		}
		blocked := false
		for hop, l := range route {
			if c := d + hop; c < t.rows && t.links[c*t.nl+t.linkID(l)] {
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
func (t *Tables) ProbeRoute(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	_, _, arrive := t.searchRoute(v, cluster)
	return arrive
}

// searchRoute finds the earliest feasible departure of placed value v to
// the cluster, resuming from the last one found for the pair.
func (t *Tables) searchRoute(v, cluster int) (src, depart, arrive int) {
	src = t.sched.Placements[v].Cluster
	k := v*t.nc + cluster
	depart, arrive = t.routeSlot(src, cluster, max(t.ReadyOnHome(v), int(t.resume[k])))
	t.resume[k] = int32(depart)
	return src, depart, arrive
}

// Route ensures value v will be usable on the cluster, scheduling a
// communication at the earliest feasible departure if needed, and returns
// the arrival cycle. v must be placed. Constants are never routed
// (immediate-broadcast rule).
func (t *Tables) Route(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	if !t.placed[v] {
		panic(fmt.Sprintf("listsched: routing unplaced value %d", v))
	}
	src, depart, arrive := t.searchRoute(v, cluster)
	route := t.m.Route(src, cluster)
	t.grow(max(arrive, depart+len(route)))
	k := depart*t.nc + src
	if t.send[k]++; t.send[k] >= int32(t.m.SendPorts) {
		t.blockInject(src, depart)
	}
	t.recv[arrive*t.nc+cluster]++
	for hop, l := range route {
		t.links[(depart+hop)*t.nl+t.linkID(l)] = true
	}
	if t.xfer >= 0 {
		t.fuBusy[k*t.nf+t.xfer] = true
		t.blockInject(src, depart)
	}
	t.sched.Comms = append(t.sched.Comms, schedule.Comm{Value: v, From: src, To: cluster, Depart: depart, Arrive: arrive})
	t.noteArrival(v, cluster, arrive)
	return arrive
}

// EarliestStart returns the first cycle instruction i could issue on the
// cluster given current arrivals, routing remote operands eagerly (commit
// controls whether routes are reserved or only probed). All of i's
// predecessors must be placed.
func (t *Tables) EarliestStart(i, cluster int, commit bool) int {
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
	// move no value. Preds lists them along with the data predecessors,
	// whose home readiness never exceeds the arrivals above.
	if len(t.g.MemEdges()) > 0 {
		for _, p := range t.g.Preds(i) {
			if r := t.ReadyOnHome(p); r > est {
				est = r
			}
		}
	}
	return est
}
