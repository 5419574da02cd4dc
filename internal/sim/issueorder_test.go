package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schedule"
)

// TestIssueOrderSortsByCycleThenID: issueOrder lists every instruction
// once, by issue cycle and then by ID, negative and far cycles included.
func TestIssueOrderSortsByCycleThenID(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		span := []int{1, 8, n + 1, 1 << 40}[rng.Intn(4)]
		pl := make([]schedule.Placement, n)
		for i := range pl {
			pl[i].Start = rng.Intn(span) - span/4
		}
		got := issueOrder(pl)
		seen := make([]bool, n)
		for k, id := range got {
			if seen[id] {
				t.Fatalf("trial %d: ID %d listed twice", trial, id)
			}
			seen[id] = true
			if k == 0 {
				continue
			}
			prev := got[k-1]
			if pl[prev].Start > pl[id].Start || pl[prev].Start == pl[id].Start && prev > id {
				t.Fatalf("trial %d: order[%d] = %d (cycle %d) after %d (cycle %d)", trial, k, id, pl[id].Start, prev, pl[prev].Start)
			}
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d IDs, want %d", trial, len(got), n)
		}
	}
}

// refIssueOrder is issueOrder as a comparator sort over (Start, ID), kept
// as the reference the radix sort is checked against.
func refIssueOrder(pl []schedule.Placement) []int {
	order := make([]int, len(pl))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(pl[a].Start, pl[b].Start); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// TestIssueOrderMatchesComparator: the radix sort returns exactly the
// comparator sort's order, on spans from a single cycle to the whole int
// range and with dense ties.
func TestIssueOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		pl := make([]schedule.Placement, n)
		kind := trial % 5
		for i := range pl {
			switch kind {
			case 0: // a real schedule's shape: short, dense, non-negative
				pl[i].Start = rng.Intn(n/4 + 1)
			case 1: // a few far-apart cycles, so most digits tie
				pl[i].Start = []int{0, 255, 256, 1 << 16, 1<<40 + 7}[rng.Intn(5)]
			case 2: // negative and positive
				pl[i].Start = rng.Intn(1<<20) - 1<<19
			case 3: // the extremes of int
				pl[i].Start = []int{math.MinInt, math.MinInt + 1, -1, 0, math.MaxInt}[rng.Intn(5)]
			default:
				pl[i].Start = int(rng.Uint64())
			}
		}
		if got, want := issueOrder(pl), refIssueOrder(pl); !slices.Equal(got, want) {
			t.Fatalf("trial %d (kind %d, n %d): radix order differs from the comparator's", trial, kind, n)
		}
	}
}
