package sim

import (
	"math/rand"
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
