package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/irtext"
)

func ringOf(shards ...string) *Ring {
	r := NewRing()
	for _, s := range shards {
		r.Add(s)
	}
	return r
}

// TestOwnersPermutation: asking for every owner yields each member exactly
// once, in a deterministic order — the hedging/failover sequence.
func TestOwnersPermutation(t *testing.T) {
	r := ringOf("a:1", "b:1", "c:1")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %d: %d owners, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			seen[o] = true
		}
		if len(seen) != 3 {
			t.Fatalf("key %d: owners %v not distinct", key, owners)
		}
		if again := r.Owners(key, 3); fmt.Sprint(again) != fmt.Sprint(owners) {
			t.Fatalf("key %d: Owners not deterministic: %v then %v", key, owners, again)
		}
	}
	if got := r.Owners(42, 5); len(got) != 3 {
		t.Errorf("n beyond membership: %d owners, want 3", len(got))
	}
	if got := r.Owners(42, 1); len(got) != 1 {
		t.Errorf("n=1: %d owners", len(got))
	}
	if got := NewRing().Owners(42, 3); got != nil {
		t.Errorf("empty ring returned owners %v", got)
	}
}

// TestOwnersDistribution: virtual nodes keep the keyspace split roughly
// evenly — no shard may own less than half its fair share.
func TestOwnersDistribution(t *testing.T) {
	r := ringOf("a:1", "b:1", "c:1")
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(11))
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Owners(rng.Uint64(), 1)[0]]++
	}
	for shard, n := range counts {
		if frac := float64(n) / keys; frac < 1.0/6 {
			t.Errorf("shard %s owns %.1f%% of the keyspace; virtual nodes are not spreading", shard, 100*frac)
		}
	}
}

// TestMinimalMovement is the consistent-hashing contract that keeps shard
// caches warm across membership changes: removing one shard moves only the
// keys it owned; every other key keeps its owner.
func TestMinimalMovement(t *testing.T) {
	r := ringOf("a:1", "b:1", "c:1")
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 3000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64()
		before[i] = r.Owners(keys[i], 1)[0]
	}
	r.Remove("c:1")
	moved := 0
	for i, k := range keys {
		after := r.Owners(k, 1)[0]
		if before[i] == "c:1" {
			moved++
			continue
		}
		if after != before[i] {
			t.Fatalf("key %d moved %s -> %s though its owner stayed in the ring", k, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed shard; distribution test is broken")
	}
	// Re-adding restores the original assignment exactly (positions are
	// content-derived, not insertion-ordered).
	r.Add("c:1")
	for i, k := range keys {
		if got := r.Owners(k, 1)[0]; got != before[i] {
			t.Fatalf("key %d: owner %s after rejoin, want %s", k, got, before[i])
		}
	}
}

// TestBoundedMovement is the quantitative half of the consistent-hashing
// contract behind live membership changes: over a large key sample, removing
// one of n shards remaps at most that shard's fair share of the keyspace
// (1/n) plus a virtual-node variance allowance — and adding a shard moves
// keys only onto the newcomer, never between survivors. This is what makes
// a live join or graceful leave affordable: the fleet's warm caches stay
// valid for every key that did not change owners.
func TestBoundedMovement(t *testing.T) {
	const (
		n       = 8
		keysN   = 10000
		epsilon = 0.06 // vnode-placement variance allowance at 64 vnodes/shard
	)
	shards := make([]string, n)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d:1", i)
	}
	r := ringOf(shards...)
	rng := rand.New(rand.NewSource(17))
	keys := make([]uint64, keysN)
	before := make(map[uint64]string, keysN)
	for i := range keys {
		keys[i] = rng.Uint64()
		before[keys[i]] = r.Owners(keys[i], 1)[0]
	}

	// Remove: only the victim's own keys may move, and its holding is bounded.
	for _, victim := range shards {
		c := r.Clone()
		c.Remove(victim)
		moved := 0
		for _, k := range keys {
			after := c.Owners(k, 1)[0]
			if before[k] != victim {
				if after != before[k] {
					t.Fatalf("remove %s: key %d moved %s -> %s though its owner survived", victim, k, before[k], after)
				}
				continue
			}
			moved++
			if after == victim {
				t.Fatalf("remove %s: key %d still routed to the removed shard", victim, k)
			}
		}
		if frac, bound := float64(moved)/keysN, 1.0/n+epsilon; frac > bound {
			t.Errorf("remove %s remapped %.1f%% of keys, bound %.1f%%", victim, 100*frac, 100*bound)
		}
	}

	// Add: keys move only onto the newcomer, and it takes at most its fair
	// share of the grown fleet (1/(n+1)) plus the variance allowance.
	r.Add("joiner:1")
	stolen := 0
	for _, k := range keys {
		after := r.Owners(k, 1)[0]
		switch {
		case after == before[k]:
		case after == "joiner:1":
			stolen++
		default:
			t.Fatalf("add joiner: key %d moved between survivors, %s -> %s", k, before[k], after)
		}
	}
	if stolen == 0 {
		t.Fatal("joiner took no keys; distribution is broken")
	}
	if frac, bound := float64(stolen)/keysN, 1.0/(n+1)+epsilon; frac > bound {
		t.Errorf("joiner took %.1f%% of keys, bound %.1f%%", 100*frac, 100*bound)
	}
}

// TestKeyForCanonical: the routing key inherits the fingerprint's
// renumbering-invariance, so isomorphic graphs route to the same shard — the
// property that partitions the content-addressed cache.
func TestKeyForCanonical(t *testing.T) {
	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	g := k.Build(4)
	key := KeyFor(g.CanonicalHash())
	rt, err := irtext.ParseString(irtext.String(g))
	if err != nil {
		t.Fatal(err)
	}
	if got := KeyFor(rt.CanonicalHash()); got != key {
		t.Fatalf("round-tripped graph routes to key %d, original %d", got, key)
	}
}
