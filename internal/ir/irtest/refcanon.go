package irtest

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/ir"
)

// Hash salts and mixers of the canonical identity, copied from internal/ir
// so the reference below stays independent of the code it checks.
const (
	upSeed   = 0x9e3779b97f4a7c15
	memTag   = 0xbf58476d1ce4e5b9
	leafTag  = 0x94d049bb133111eb
	argTag   = 0x2545f4914f6cdd1d
	finalTag = 0xd6e8feb86659fd93
)

func hmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fold(h, v uint64) uint64 { return hmix(h*0x100000001b3 ^ v) }

// RefCanonical computes g's canonical identity the way ir.Graph.Canonical
// did before its order moved to a key sort: a comparator sort over indices
// and one 8-byte SHA-256 write per instruction. It is kept verbatim apart
// from reading memory edges and successors through the graph's accessors,
// and it is the reference side of the canonical differential tests.
func RefCanonical(g *ir.Graph) ir.Canonical {
	g.Seal()
	n := len(g.Instrs)

	memPreds := make([][]int, n)
	memSuccs := make([][]int, n)
	for _, e := range g.MemEdges() {
		memPreds[e[1]] = append(memPreds[e[1]], e[0])
		memSuccs[e[0]] = append(memSuccs[e[0]], e[1])
	}

	up := make([]uint64, n)
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
		for _, p := range memPreds[i] {
			mp += hmix(up[p] ^ memTag) // commutative: predecessor order is not semantic
		}
		up[i] = fold(h, mp)
	}

	down := make([]uint64, n)
	for i := n - 1; i >= 0; i-- {
		d := uint64(leafTag)
		for _, s := range g.Succs(i) {
			for pos, a := range g.Instrs[s].Args {
				if a == i {
					d += hmix(fold(fold(argTag, down[s]), fold(up[s], uint64(pos))))
				}
			}
		}
		for _, s := range memSuccs[i] {
			d += hmix(fold(fold(memTag, down[s]), up[s]))
		}
		down[i] = hmix(d)
	}

	final := make([]uint64, n)
	for i := range final {
		final[i] = fold(fold(finalTag, up[i]), down[i])
	}

	// Canonical order: sort by the refined hashes; the original ID is only
	// the last-resort tie-break among indistinguishable instructions.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(ia, ib int) int {
		if c := cmp.Compare(final[ia], final[ib]); c != 0 {
			return c
		}
		if c := cmp.Compare(up[ia], up[ib]); c != 0 {
			return c
		}
		return cmp.Compare(ia, ib)
	})
	order := make([]int, n)
	for rank, i := range idx {
		order[i] = rank
	}

	hasher := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	hasher.Write(buf[:])
	for _, i := range idx {
		binary.LittleEndian.PutUint64(buf[:], final[i])
		hasher.Write(buf[:])
	}
	var c ir.Canonical
	hasher.Sum(c.Hash[:0])
	c.Order = order
	return c
}
