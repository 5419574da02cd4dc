package ir

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestCanonicalSortMatchesComparator checks the radix key sort against a
// comparator sort over (final, up, ID) on keys drawn from small pools of
// high words, low words and up hashes, so keys tie on the radix bits, on
// the whole final hash and on both hashes.
func TestCanonicalSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		pools := 1 + rng.Intn(6)
		final := make([]uint64, n)
		up := make([]uint64, n)
		both := make([]canonKey, 2*n)
		for i := range n {
			hi, lo := uint64(rng.Intn(pools)), uint64(rng.Intn(pools))
			final[i] = hi<<56 | hi<<32 | lo<<8 | lo
			if trial%2 == 1 {
				final[i] = rng.Uint64()
			}
			up[i] = uint64(rng.Intn(pools))
			both[i] = canonKey{final[i], i}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(final[a], final[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(up[a], up[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		got := canonicalSort(both, up)
		for r, k := range got {
			if k.id != want[r] || k.final != final[k.id] {
				t.Fatalf("trial %d (n=%d): rank %d holds %d, want %d", trial, n, r, k.id, want[r])
			}
		}
	}
}
