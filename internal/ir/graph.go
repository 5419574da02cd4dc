package ir

import (
	"errors"
	"fmt"
	"sync"
)

// Graph is a scheduling unit: a DAG of instructions connected by data
// dependences (through Instr.Args) and explicit memory-order edges.
//
// Build a graph with New and the Add* methods, then call Seal (directly or
// implicitly through any analysis) to freeze adjacency. Mutating a sealed
// graph's structure is a programming error.
type Graph struct {
	// Name labels the graph in dumps, experiment tables and errors.
	Name string
	// Instrs holds every instruction; Instrs[i].ID == i.
	Instrs []*Instr

	memEdges [][2]int // (from, to) ordering edges between memory ops

	// Add carves instructions and their operand lists from these chunk
	// tails instead of allocating each one; see Add.
	instrSlab []Instr
	argSlab   []int

	sealed    bool
	sealOnce  sync.Once
	preds     [][]int // deduplicated data+memory predecessors
	succs     [][]int // deduplicated data+memory successors
	neighbors [][]int // deduplicated union of preds and succs
	preplaced []int   // IDs of preplaced instructions

	canonOnce sync.Once
	canon     Canonical
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// Len returns the number of instructions.
func (g *Graph) Len() int { return len(g.Instrs) }

// Add appends an instruction with the given opcode and operand producers and
// returns it. Instructions and operand lists are carved from chunked backing
// arrays owned by the graph, so building a graph costs a few allocations
// rather than two per instruction; the returned pointer stays valid for the
// graph's lifetime. Add panics if the graph is sealed, an argument ID is out of
// range or not yet defined (which would create a cycle), or the operand
// count does not match the opcode arity.
func (g *Graph) Add(op Op, args ...int) *Instr {
	if g.sealed {
		panic("ir: Add on sealed graph")
	}
	if want := op.Arity(); want >= 0 && len(args) != want {
		panic(fmt.Sprintf("ir: %v wants %d operands, got %d", op, want, len(args)))
	}
	id := len(g.Instrs)
	for _, a := range args {
		if a < 0 || a >= id {
			panic(fmt.Sprintf("ir: instruction %d references undefined operand %%%d", id, a))
		}
		if !g.Instrs[a].Op.HasResult() {
			panic(fmt.Sprintf("ir: instruction %d consumes %%%d (%v), which produces no value", id, a, g.Instrs[a].Op))
		}
	}
	if len(g.instrSlab) == 0 {
		g.instrSlab = make([]Instr, slabChunk(id, minInstrChunk, maxInstrChunk))
	}
	in := &g.instrSlab[0]
	g.instrSlab = g.instrSlab[1:]
	*in = Instr{ID: id, Op: op, Bank: NoBank, Home: NoHome}
	if len(args) > 0 {
		if len(g.argSlab) < len(args) {
			g.argSlab = make([]int, max(len(args), slabChunk(2*id, minArgChunk, maxArgChunk)))
		}
		// Capped to its own length, so an append to one instruction's
		// operands reallocates instead of overwriting its neighbour's.
		in.Args = g.argSlab[:len(args):len(args)]
		copy(in.Args, args)
		g.argSlab = g.argSlab[len(args):]
	}
	g.Instrs = append(g.Instrs, in)
	return in
}

// Chunk bounds for Add's slabs. A new chunk is as large as what the graph
// already holds, clamped to these bounds, so the unused tail of the last
// chunk never exceeds half the graph or one maximal chunk. The largest
// chunks (22 KB of instructions, 16 KB of operands) stay below the
// runtime's 32 KB large-object size; 1024-instruction chunks cost the warm
// service benchmark about a megabyte more resident memory.
const (
	minInstrChunk, maxInstrChunk = 16, 256
	minArgChunk, maxArgChunk     = 32, 2048
)

func slabChunk(have, lo, hi int) int { return min(max(have, lo), hi) }

// AddConst appends a ConstInt instruction with the given immediate.
func (g *Graph) AddConst(v int64) *Instr {
	in := g.Add(ConstInt)
	in.Imm = v
	return in
}

// AddFConst appends a ConstFloat instruction with the given immediate.
func (g *Graph) AddFConst(v float64) *Instr {
	in := g.Add(ConstFloat)
	in.FImm = v
	return in
}

// AddLoad appends a Load from the given bank at the address produced by
// addr. The load is preplaced on the cluster equal to the bank only if the
// caller sets Home; bank assignment and preplacement are distinct concerns.
func (g *Graph) AddLoad(bank, addr int) *Instr {
	in := g.Add(Load, addr)
	in.Bank = bank
	return in
}

// AddStore appends a Store to the given bank at the address produced by
// addr, storing the value produced by val.
func (g *Graph) AddStore(bank, addr, val int) *Instr {
	in := g.Add(Store, addr, val)
	in.Bank = bank
	return in
}

// AddMemEdge records an ordering edge between two memory instructions
// (store→load, store→store, or load→store on the same bank). The simulator
// and schedulers treat it like a zero-value dependence: the successor may
// not issue before the predecessor completes.
func (g *Graph) AddMemEdge(from, to int) {
	if g.sealed {
		panic("ir: AddMemEdge on sealed graph")
	}
	if from < 0 || from >= len(g.Instrs) || to < 0 || to >= len(g.Instrs) {
		panic(fmt.Sprintf("ir: memory edge (%d,%d) out of range", from, to))
	}
	if from >= to {
		panic(fmt.Sprintf("ir: memory edge (%d,%d) must point forward", from, to))
	}
	g.memEdges = append(g.memEdges, [2]int{from, to})
}

// MemEdges returns the explicit memory-order edges as (from, to) pairs.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) MemEdges() [][2]int { return g.memEdges }

// Seal freezes the graph and computes adjacency. It is idempotent and safe
// to call from several goroutines at once (concurrent analyses of a shared
// graph all start here), and every analysis calls it implicitly, so explicit
// calls are only needed to catch accidental later mutation early.
func (g *Graph) Seal() {
	g.sealOnce.Do(g.seal)
}

func (g *Graph) seal() {
	g.sealed = true
	n := len(g.Instrs)
	// mark[v] == stamp says v is already listed for the instruction that
	// took stamp. Every sweep below takes fresh stamps, so mark is never
	// cleared.
	mark := make([]int, n)
	stamp := 0
	inDeg, outDeg := make([]int, n), make([]int, n)
	// A data edge can only duplicate another operand of its own target.
	for _, in := range g.Instrs {
		stamp++
		for _, a := range in.Args {
			if mark[a] != stamp {
				mark[a] = stamp
				outDeg[a]++
				inDeg[in.ID]++
			}
		}
	}
	// A memory edge duplicates a data edge when its source is an operand
	// of its target, or an earlier memory edge with the same endpoints.
	// The edges are grouped by target (a stable counting sort) so each
	// target stamps its operands once.
	memDup := make([]bool, len(g.memEdges))
	if len(g.memEdges) > 0 {
		first := make([]int, n+1)
		for _, e := range g.memEdges {
			first[e[1]+1]++
		}
		for t := 1; t <= n; t++ {
			first[t] += first[t-1]
		}
		byTo := make([]int, len(g.memEdges))
		for k, e := range g.memEdges {
			byTo[first[e[1]]] = k
			first[e[1]]++
		}
		// first[t] is now the end of target t's run, first[t-1] its start.
		lo := 0
		for t := 0; t < n; t++ {
			if lo == first[t] {
				continue
			}
			stamp++
			for _, a := range g.Instrs[t].Args {
				mark[a] = stamp
			}
			for _, k := range byTo[lo:first[t]] {
				if f := g.memEdges[k][0]; mark[f] == stamp {
					memDup[k] = true
				} else {
					mark[f] = stamp
					outDeg[f]++
					inDeg[t]++
				}
			}
			lo = first[t]
		}
	}
	// Every list lives in one backing array, carved by degree: preds and
	// succs take one slot per distinct edge each, and each neighbour list
	// at most its preds plus succs.
	edges := 0
	for _, d := range inDeg {
		edges += d
	}
	buf := make([]int, 4*edges)
	lists := make([][]int, 3*n)
	g.preds, g.succs, g.neighbors = lists[:n:n], lists[n:2*n:2*n], lists[2*n:]
	off := 0
	for i := 0; i < n; i++ {
		if inDeg[i] > 0 {
			g.preds[i] = buf[off : off : off+inDeg[i]]
			off += inDeg[i]
		}
		if outDeg[i] > 0 {
			g.succs[i] = buf[off : off : off+outDeg[i]]
			off += outDeg[i]
		}
	}
	// Fill in exactly the order the edges were first seen: data edges by
	// target and operand position, then memory edges in list order.
	for _, in := range g.Instrs {
		stamp++
		for _, a := range in.Args {
			if mark[a] != stamp {
				mark[a] = stamp
				g.succs[a] = append(g.succs[a], in.ID)
				g.preds[in.ID] = append(g.preds[in.ID], a)
			}
		}
	}
	for k, e := range g.memEdges {
		if !memDup[k] {
			g.succs[e[0]] = append(g.succs[e[0]], e[1])
			g.preds[e[1]] = append(g.preds[e[1]], e[0])
		}
	}
	// Precompute the neighbor union once so Neighbors is allocation-free:
	// the convergent passes walk it in their inner loops.
	for i := 0; i < n; i++ {
		stamp++
		nb := buf[off:off]
		for _, list := range [2][]int{g.preds[i], g.succs[i]} {
			for _, v := range list {
				if mark[v] != stamp {
					mark[v] = stamp
					nb = append(nb, v)
				}
			}
		}
		g.neighbors[i] = nb[:len(nb):len(nb)]
		off += len(nb)
	}
	for i, in := range g.Instrs {
		if in.Preplaced() {
			g.preplaced = append(g.preplaced, i)
		}
	}
}

// Preds returns the deduplicated predecessor IDs of instruction i,
// including memory-order predecessors. The slice is owned by the graph.
func (g *Graph) Preds(i int) []int {
	g.Seal()
	return g.preds[i]
}

// Succs returns the deduplicated successor IDs of instruction i, including
// memory-order successors. The slice is owned by the graph.
func (g *Graph) Succs(i int) []int {
	g.Seal()
	return g.succs[i]
}

// Leaves returns the IDs of instructions with no successors.
func (g *Graph) Leaves() []int {
	g.Seal()
	var r []int
	for i := range g.Instrs {
		if len(g.succs[i]) == 0 {
			r = append(r, i)
		}
	}
	return r
}

// Validate checks structural well-formedness: IDs match positions, operand
// references are in range and acyclic (guaranteed by construction but
// re-checked for graphs built by the parser), arities match, memory edges
// connect memory instructions on the same bank, and preplaced homes are
// non-negative. It returns the first problem found.
func (g *Graph) Validate() error {
	for i, in := range g.Instrs {
		if in.ID != i {
			return fmt.Errorf("ir: %s: instruction at index %d has ID %d", g.Name, i, in.ID)
		}
		if !in.Op.Valid() {
			return fmt.Errorf("ir: %s: instruction %d has invalid opcode", g.Name, i)
		}
		if want := in.Op.Arity(); want >= 0 && len(in.Args) != want {
			return fmt.Errorf("ir: %s: instruction %d (%v) has %d operands, want %d", g.Name, i, in.Op, len(in.Args), want)
		}
		for _, a := range in.Args {
			if a < 0 || a >= i {
				return fmt.Errorf("ir: %s: instruction %d references %%%d (graph must be in topological order)", g.Name, i, a)
			}
			if !g.Instrs[a].Op.HasResult() {
				return fmt.Errorf("ir: %s: instruction %d consumes resultless %%%d", g.Name, i, a)
			}
		}
		if in.Op.IsMemory() && in.Bank < 0 {
			return fmt.Errorf("ir: %s: memory instruction %d has no bank", g.Name, i)
		}
		if !in.Op.IsMemory() && in.Bank != NoBank {
			return fmt.Errorf("ir: %s: non-memory instruction %d has bank %d", g.Name, i, in.Bank)
		}
		if in.Home < NoHome {
			return fmt.Errorf("ir: %s: instruction %d has invalid home %d", g.Name, i, in.Home)
		}
	}
	for _, e := range g.memEdges {
		from, to := e[0], e[1]
		if from < 0 || from >= len(g.Instrs) || to < 0 || to >= len(g.Instrs) || from >= to {
			return fmt.Errorf("ir: %s: bad memory edge (%d,%d)", g.Name, from, to)
		}
		a, b := g.Instrs[from], g.Instrs[to]
		if !a.Op.IsMemory() || !b.Op.IsMemory() {
			return fmt.Errorf("ir: %s: memory edge (%d,%d) touches non-memory instruction", g.Name, from, to)
		}
	}
	return nil
}

// ErrEmpty is returned by analyses that require at least one instruction.
var ErrEmpty = errors.New("ir: empty graph")

// Preplaced returns the IDs of all preplaced instructions. On a sealed graph
// the slice is precomputed and owned by the graph (callers must not modify
// it); before sealing a fresh slice is built per call.
func (g *Graph) Preplaced() []int {
	if g.sealed {
		return g.preplaced
	}
	var r []int
	for i, in := range g.Instrs {
		if in.Preplaced() {
			r = append(r, i)
		}
	}
	return r
}

// Clone returns a deep copy of the graph. The copy is unsealed so callers
// may extend it.
func (g *Graph) Clone() *Graph {
	out := New(g.Name)
	out.Instrs = make([]*Instr, len(g.Instrs))
	// One exactly sized slab each for the instructions and their operands;
	// every Args is capped to its own length as in Add.
	instrs := make([]Instr, len(g.Instrs))
	nargs := 0
	for _, in := range g.Instrs {
		nargs += len(in.Args)
	}
	args := make([]int, nargs)
	for i, in := range g.Instrs {
		cp := &instrs[i]
		*cp = *in
		cp.Args = nil
		if len(in.Args) > 0 {
			cp.Args = args[:len(in.Args):len(in.Args)]
			copy(cp.Args, in.Args)
			args = args[len(in.Args):]
		}
		out.Instrs[i] = cp
	}
	out.memEdges = append([][2]int(nil), g.memEdges...)
	return out
}
