// Package irtest holds the map-based adjacency builder that ir.Graph's
// dense Seal replaced and the comparator-sorted canonical identity that
// ir.Graph.Canonical replaced. They are the reference side of the seal and
// canonical differential tests in internal/ir and of FuzzParse in
// internal/irtext, and nothing outside tests imports them.
package irtest

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Adjacency is a graph's sealed adjacency as the ir accessors return it.
type Adjacency struct {
	Preds, Succs, Neighbors [][]int
	Preplaced               []int
}

// RefSeal computes g's adjacency with the map-based deduplication Seal used
// before it moved to generation stamps, kept verbatim apart from returning
// its lists instead of storing them on the graph.
func RefSeal(g *ir.Graph) Adjacency {
	var r Adjacency
	n := len(g.Instrs)
	r.Preds = make([][]int, n)
	r.Succs = make([][]int, n)
	seen := make(map[[2]int]bool)
	addEdge := func(from, to int) {
		key := [2]int{from, to}
		if seen[key] {
			return
		}
		seen[key] = true
		r.Succs[from] = append(r.Succs[from], to)
		r.Preds[to] = append(r.Preds[to], from)
	}
	for _, in := range g.Instrs {
		for _, a := range in.Args {
			addEdge(a, in.ID)
		}
	}
	for _, e := range g.MemEdges() {
		addEdge(e[0], e[1])
	}
	r.Neighbors = make([][]int, n)
	dup := make(map[int]bool)
	for i := 0; i < n; i++ {
		clear(dup)
		nb := make([]int, 0, len(r.Preds[i])+len(r.Succs[i]))
		for _, lists := range [2][]int{r.Preds[i], r.Succs[i]} {
			for _, v := range lists {
				if !dup[v] {
					dup[v] = true
					nb = append(nb, v)
				}
			}
		}
		r.Neighbors[i] = nb
	}
	for i, in := range g.Instrs {
		if in.Preplaced() {
			r.Preplaced = append(r.Preplaced, i)
		}
	}
	return r
}

// Sealed returns g's adjacency through the ir accessors, sealing g.
func Sealed(g *ir.Graph) Adjacency {
	n := g.Len()
	r := Adjacency{
		Preds:     make([][]int, n),
		Succs:     make([][]int, n),
		Neighbors: make([][]int, n),
		Preplaced: g.Preplaced(),
	}
	for i := 0; i < n; i++ {
		r.Preds[i], r.Succs[i], r.Neighbors[i] = g.Preds(i), g.Succs(i), g.Neighbors(i)
	}
	return r
}

// Diff describes the first difference between two adjacencies, or returns
// "" when they match list for list (nil and empty lists alike).
func Diff(got, want Adjacency) string {
	for _, c := range []struct {
		name      string
		got, want [][]int
	}{{"preds", got.Preds, want.Preds}, {"succs", got.Succs, want.Succs}, {"neighbors", got.Neighbors, want.Neighbors}} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s: %d lists, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if !slices.Equal(c.got[i], c.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	if !slices.Equal(got.Preplaced, want.Preplaced) {
		return fmt.Sprintf("preplaced = %v, want %v", got.Preplaced, want.Preplaced)
	}
	return ""
}
