package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/irtext"
)

var updateRingGolden = flag.Bool("update-ring-golden", false,
	"regenerate testdata/ring_owners.golden from the current ring")

// ringGoldenPath pins ring ownership: every shard's cache holds the records
// of the keys it owns, so a ring that places keys differently turns a
// rolling gateway upgrade into a fleet-wide cold start.
const ringGoldenPath = "testdata/ring_owners.golden"

func ringOf(shards ...string) *Ring { return NewRing(shards...) }

// goldenFleets are the fleets whose ownership is pinned: a small one and the
// eight-shard one TestBoundedMovement uses.
func goldenFleets() [][]string {
	eight := make([]string, 8)
	for i := range eight {
		eight[i] = fmt.Sprintf("shard-%d:8745", i)
	}
	return [][]string{{"10.0.0.1:8751", "10.0.0.2:8751", "10.0.0.3:8751"}, eight}
}

// goldenKeys are the pinned keys for one fleet: the keyspace's ends and
// middle, keys at and beside two virtual-node positions (the clockwise
// search's boundary), and content-derived keys to fill about 200.
func goldenKeys(shards []string) []uint64 {
	keys := []uint64{0, 1, 1 << 63, math.MaxUint64}
	for _, vnode := range []string{shards[0] + "#0", shards[len(shards)-1] + "#63"} {
		sum := sha256.Sum256([]byte(vnode))
		pos := binary.BigEndian.Uint64(sum[:8])
		keys = append(keys, pos-1, pos, pos+1)
	}
	for i := 0; len(keys) < 200; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("ring-golden#%d", i)))
		keys = append(keys, binary.BigEndian.Uint64(sum[:8]))
	}
	return keys
}

// ringGolden renders every golden fleet's full owner order for its keys:
// a "fleet" line naming the members, then one "key owners..." line per key,
// the key in hex.
func ringGolden() []byte {
	var b bytes.Buffer
	for _, shards := range goldenFleets() {
		r := ringOf(shards...)
		fmt.Fprintf(&b, "fleet %s\n", strings.Join(shards, " "))
		for _, k := range goldenKeys(shards) {
			fmt.Fprintf(&b, "%016x %s\n", k, strings.Join(r.Owners(k, len(shards)), " "))
		}
	}
	return b.Bytes()
}

// TestRingOwnershipGolden: the primary owner and the whole failover order
// of every pinned key match the committed golden, for both fleets.
func TestRingOwnershipGolden(t *testing.T) {
	if *updateRingGolden {
		if err := os.WriteFile(ringGoldenPath, ringGolden(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(ringGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r *Ring
	var shards []string
	fleets, keys := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && fields[0] == "fleet" {
			shards = fields[1:]
			r = ringOf(shards...)
			fleets++
			continue
		}
		if r == nil || len(fields) != 1+len(shards) {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		key, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := fields[1:]
		if got := r.Owners(key, len(shards)); !slices.Equal(got, want) {
			t.Errorf("fleet of %d, key %016x: owners %v, golden %v", len(shards), key, got, want)
		}
		if got := r.Owners(key, 1); !slices.Equal(got, want[:1]) {
			t.Errorf("fleet of %d, key %016x: primary %v, golden %s", len(shards), key, got, want[0])
		}
		keys++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if fleets != len(goldenFleets()) || keys < 2*190 {
		t.Fatalf("golden holds %d fleets and %d keys; regenerate with -update-ring-golden", fleets, keys)
	}
}

// TestRingOrderIndependent: ownership depends only on the member names, not
// on the order they arrive in, so gateways booted with their -shard flags
// in different orders route every key alike.
func TestRingOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shards := range goldenFleets() {
		want := ringOf(shards...)
		keys := goldenKeys(shards)
		for i := 0; i < 10; i++ {
			perm := slices.Clone(shards)
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			if i == 0 {
				slices.Reverse(perm)
			}
			r := ringOf(perm...)
			for _, k := range keys {
				if got, w := r.Owners(k, len(shards)), want.Owners(k, len(shards)); !slices.Equal(got, w) {
					t.Fatalf("members in order %v: key %016x owners %v, want %v", perm, k, got, w)
				}
			}
		}
	}
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
	r = ringOf("a:1", "b:1")
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
	r = ringOf("a:1", "b:1", "c:1")
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
		c := ringOf(slices.DeleteFunc(slices.Clone(shards), func(s string) bool { return s == victim })...)
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
	r = ringOf(append(slices.Clone(shards), "joiner:1")...)
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
