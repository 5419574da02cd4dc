package core

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
)

// refDistances is a plain breadth-first search over Preds then Succs,
// allocating its own vector and queue.
func refDistances(g *ir.Graph, src int) []int32 {
	d := make([]int32, g.Len())
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nbs := range [2][]int{g.Preds(cur), g.Succs(cur)} {
			for _, nb := range nbs {
				if d[nb] < 0 {
					d[nb] = d[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
	return d
}

// TestDistancesMatchBFS: the state's distance table agrees with a plain
// BFS from every source, in any order of first use, and a state recycled
// onto another graph serves that graph's rows, not the previous one's.
func TestDistancesMatchBFS(t *testing.T) {
	m := machine.Raw(4)
	graphs := []*ir.Graph{
		bench.RandomLayered(300, 20, 4, 1),
		bench.RandomLayered(120, 4, 4, 2),
		bench.RandomLayered(500, 60, 4, 3),
		smallGraph(),
	}
	s := NewState(graphs[0], m, 1)
	for gi, g := range graphs {
		if gi > 0 {
			s.init(g, m, 1)
		}
		n := g.Len()
		order := make([]int, 0, 2*n)
		for i := n - 1; i >= 0; i -= 3 {
			order = append(order, i)
		}
		for i := range n {
			order = append(order, i)
		}
		for _, src := range order {
			if got, want := s.Distances(src), refDistances(g, src); !slices.Equal(got, want) {
				t.Fatalf("graph %d source %d: %v, want %v", gi, src, got, want)
			}
		}
	}
}
