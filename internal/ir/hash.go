package ir

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Fingerprint is a 256-bit content hash of a dependence graph.
type Fingerprint [32]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Canonical is the renumbering-invariant identity of a graph: a content hash
// that is equal for isomorphic graphs (same instructions, same dependence
// structure, different topological numbering) and an ordering that maps the
// graph's own instruction IDs onto canonical positions, so per-instruction
// data (such as a cached schedule) computed on one numbering can be carried
// over to an isomorphic graph with another.
//
// Hash covers exactly the inputs a scheduler sees: opcode, immediates, bank,
// home, operand edges in operand order, and memory-order edges. It excludes
// Graph.Name and Instr.Name, which are documented as non-semantic, so two
// differently-labelled copies of the same scheduling unit share an identity.
type Canonical struct {
	// Hash is the renumbering-invariant content hash.
	Hash Fingerprint
	// Order[i] is the canonical position of instruction i. Positions are a
	// permutation of 0..Len-1. Instructions that the refinement cannot
	// distinguish (candidate automorphisms) are tie-broken by original ID,
	// so Order itself is only canonical up to such symmetries; consumers
	// that remap per-instruction data across isomorphic graphs must
	// re-validate the result (see internal/engine).
	Order []int
}

// Hash salts, arbitrary odd constants so the different edge roles cannot
// alias each other.
const (
	upSeed   = 0x9e3779b97f4a7c15
	memTag   = 0xbf58476d1ce4e5b9
	leafTag  = 0x94d049bb133111eb
	argTag   = 0x2545f4914f6cdd1d
	finalTag = 0xd6e8feb86659fd93
)

// hmix is a strong 64-bit finalizer (splitmix64's).
func hmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fold is the order-sensitive hash accumulator.
func fold(h, v uint64) uint64 { return hmix(h*0x100000001b3 ^ v) }

// Canonical computes the graph's canonical identity. The cost is two linear
// passes over the edges plus one sort — negligible next to scheduling.
//
// The construction is a two-direction Weisfeiler-Lehman refinement on the
// DAG: an "up" hash folds each instruction's label with its operand
// producers' hashes (in operand order) and its memory-order predecessors
// (commutatively), and a "down" hash folds in consumers. Because operand
// references always point backward and memory edges forward, one bottom-up
// and one top-down sweep reach a fixpoint. The graph hash is the sorted
// multiset of per-instruction hashes, which no topological renumbering can
// change.
// The identity is computed once per sealed graph and cached: engine workers
// key the schedule cache on it for every job, so a warm cache hit must not
// re-refine the whole graph. Callers must treat the returned Order as
// read-only.
func (g *Graph) Canonical() Canonical {
	g.Seal()
	g.canonOnce.Do(func() { g.canon = g.computeCanonical() })
	return g.canon
}

func (g *Graph) computeCanonical() Canonical {
	n := len(g.Instrs)

	// Memory-order neighbours per instruction; nil for a graph without
	// memory edges, which needs no lists at all.
	var memPreds, memSuccs [][]int
	if len(g.memEdges) > 0 {
		memPreds, memSuccs = make([][]int, n), make([][]int, n)
		for _, e := range g.memEdges {
			memPreds[e[1]] = append(memPreds[e[1]], e[0])
			memSuccs[e[0]] = append(memSuccs[e[0]], e[1])
		}
	}

	// up and down share one backing array.
	hashes := make([]uint64, 2*n)
	up, down := hashes[:n:n], hashes[n:]
	for i, in := range g.Instrs {
		h := fold(upSeed, uint64(in.Op))
		h = fold(h, uint64(in.Imm))
		h = fold(h, math.Float64bits(in.FImm))
		h = fold(h, uint64(int64(in.Bank)))
		h = fold(h, uint64(int64(in.Home)))
		h = fold(h, uint64(len(in.Args)))
		for _, a := range in.Args {
			h = fold(h, up[a])
		}
		var mp uint64
		if memPreds != nil {
			for _, p := range memPreds[i] {
				mp += hmix(up[p] ^ memTag) // commutative: predecessor order is not semantic
			}
		}
		up[i] = fold(h, mp)
	}

	for i := n - 1; i >= 0; i-- {
		d := uint64(leafTag)
		for _, s := range g.succs[i] {
			for pos, a := range g.Instrs[s].Args {
				if a == i {
					d += hmix(fold(fold(argTag, down[s]), fold(up[s], uint64(pos))))
				}
			}
		}
		if memSuccs != nil {
			for _, s := range memSuccs[i] {
				d += hmix(fold(fold(memTag, down[s]), up[s]))
			}
		}
		down[i] = hmix(d)
	}

	// The sort's key array, twice n long, holds the final hashes.
	both := make([]canonKey, 2*n)
	for i := range n {
		both[i] = canonKey{fold(fold(finalTag, up[i]), down[i]), i}
	}
	keys := canonicalSort(both, up)

	// The hash input is n, then every final hash in canonical order, in one
	// buffer.
	order := make([]int, n)
	buf := make([]byte, 8*(n+1))
	binary.LittleEndian.PutUint64(buf, uint64(n))
	for rank, k := range keys {
		order[k.id] = rank
		binary.LittleEndian.PutUint64(buf[8*(rank+1):], k.final)
	}
	return Canonical{Hash: sha256.Sum256(buf), Order: order}
}

// canonKey is one instruction's sort key: its final hash and its ID.
type canonKey struct {
	final uint64
	id    int
}

// canonicalSort puts the keys in the first half of both, in ID order,
// into canonical order and returns them; the second half is scratch. The
// order is by final hash, then by up hash, then by ID, the last-resort
// tie-break among indistinguishable instructions. A least-significant-digit
// radix sort, one byte per pass over contiguous (final, ID) pairs, orders
// the keys by the high 32 bits of final. It is stable and starts in ID
// order, so only the rare runs that share those bits need a second sort,
// by the whole final hash and then the up hash.
func canonicalSort(both []canonKey, up []uint64) []canonKey {
	n := len(both) / 2
	src, dst := both[:n:n], both[n:]
	var counts [4][256]int32
	for _, k := range src {
		for d := range counts {
			counts[d][byte(k.final>>(32+8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		shift := 32 + 8*d
		if n == 0 || int(c[byte(src[0].final>>shift)]) == n {
			continue // every key has the same digit here
		}
		var off int32
		for b, cnt := range c {
			c[b] = off
			off += cnt
		}
		for _, k := range src {
			b := byte(k.final >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && src[hi].final>>32 == src[lo].final>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(src[lo:hi], func(a, b canonKey) int {
				if c := cmp.Compare(a.final, b.final); c != 0 {
					return c
				}
				return cmp.Compare(up[a.id], up[b.id])
			})
		}
		lo = hi
	}
	return src
}

// CanonicalHash is Canonical().Hash for callers that do not need the order.
func (g *Graph) CanonicalHash() Fingerprint { return g.Canonical().Hash }

// Renumber returns a copy of the graph renumbered by perm, where perm[old]
// is the new ID of instruction old. The new numbering must itself be
// topological (every operand and memory edge still points backward); an
// error is returned otherwise. The result is isomorphic to the input and has
// the same CanonicalHash.
func Renumber(g *Graph, perm []int) (*Graph, error) {
	n := g.Len()
	if len(perm) != n {
		return nil, fmt.Errorf("ir: renumber: perm has %d entries for %d instructions", len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for old, nw := range perm {
		if nw < 0 || nw >= n || inv[nw] != -1 {
			return nil, fmt.Errorf("ir: renumber: perm is not a permutation at %d -> %d", old, nw)
		}
		inv[nw] = old
	}
	out := New(g.Name)
	out.Instrs = make([]*Instr, n)
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		in := g.Instrs[old]
		cp := *in
		cp.ID = nw
		cp.Args = make([]int, len(in.Args))
		for ai, a := range in.Args {
			if perm[a] >= nw {
				return nil, fmt.Errorf("ir: renumber: operand edge %d->%d not topological after renumbering", a, old)
			}
			cp.Args[ai] = perm[a]
		}
		out.Instrs[nw] = &cp
	}
	for _, e := range g.memEdges {
		from, to := perm[e[0]], perm[e[1]]
		if from >= to {
			return nil, fmt.Errorf("ir: renumber: memory edge (%d,%d) not topological after renumbering", e[0], e[1])
		}
		out.memEdges = append(out.memEdges, [2]int{from, to})
	}
	// Keep the memory-edge list in a normalized order so renumbered graphs
	// print deterministically.
	sort.Slice(out.memEdges, func(a, b int) bool {
		if out.memEdges[a][0] != out.memEdges[b][0] {
			return out.memEdges[a][0] < out.memEdges[b][0]
		}
		return out.memEdges[a][1] < out.memEdges[b][1]
	})
	return out, nil
}

// RandomRenumbering returns a uniformly random topological renumbering of
// the graph (perm[old] = new), suitable for Renumber. It is the test
// utility behind the canonical-hash property tests and the engine's
// isomorphism tests: the same seed yields the same permutation.
func RandomRenumbering(g *Graph, seed int64) []int {
	g.Seal()
	n := len(g.Instrs)
	rng := rand.New(rand.NewSource(seed))
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.preds[i])
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	perm := make([]int, n)
	for next := 0; next < n; next++ {
		ri := rng.Intn(len(ready))
		i := ready[ri]
		ready[ri] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		perm[i] = next
		for _, s := range g.succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return perm
}
