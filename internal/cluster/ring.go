// Package cluster is the fault-tolerant routing tier in front of a fleet of
// schedd shards (cmd/schedgw). It consistent-hashes every request on the
// engine's canonical graph fingerprint, so the content-addressed schedule
// cache partitions naturally: isomorphic graphs land on the same shard and
// hit its warm cache, no matter which client sends them.
//
// Robustness is the point of the package:
//
//   - Health probing: each shard's /readyz is polled continuously; a shard
//     that stops answering ready is routed around within a probe interval.
//   - Shard breakers: request and probe failures feed a per-shard
//     closed/open/half-open circuit breaker (the internal/robust state
//     machine), so a flapping shard is not hammered while it recovers.
//   - Hedged requests: when the primary shard is slower than the recent
//     latency-percentile budget, a second attempt fires at the next shard on
//     the ring; the first deliverable response wins and the loser's context
//     is cancelled. Exactly one response reaches the client, provably.
//   - Bounded retry: connection errors re-route to the next owner with
//     full-jitter backoff, a bounded number of times.
//   - Quorum degradation: when ready shards drop below quorum the ring
//     ordering is abandoned for any-alive-shard routing — capacity shrinks
//     but the service stays up.
package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
)

// KeyFor maps a canonical graph fingerprint onto the hash ring's keyspace.
// The fingerprint is already a uniformly distributed content hash
// (internal/ir), so its leading bytes are the ring position directly.
func KeyFor(fp ir.Fingerprint) uint64 { return binary.BigEndian.Uint64(fp[:8]) }

// point is one virtual node on the ring.
type point struct {
	pos   uint64
	shard string
}

// replicas is the virtual-node count per shard on the ring.
const replicas = 64

// Ring is a consistent-hash ring of shard names. Each shard owns replicas
// virtual points; a key is served by the first shard clockwise from its
// position, and Owners enumerates the distinct shards in that order — the
// hedging/failover sequence. A point's position depends only on its shard's
// name, so a membership change moves only the keys adjacent to the changed
// shard's points (~1/n of the keyspace), which is what keeps a shard's
// content-addressed cache valid across other shards' joins and leaves. A
// Ring is immutable: a membership change builds a new one.
type Ring struct {
	points []point  // sorted by pos
	shards []string // sorted, distinct
}

// NewRing returns the ring of the named shards. The order of the names does
// not matter, and a repeated name counts once.
func NewRing(shards ...string) *Ring {
	names := slices.Clone(shards)
	slices.Sort(names)
	r := &Ring{shards: slices.Compact(names)}
	r.points = make([]point, 0, replicas*len(r.shards))
	for _, s := range r.shards {
		for i := 0; i < replicas; i++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", s, i)))
			r.points = append(r.points, point{pos: binary.BigEndian.Uint64(sum[:8]), shard: s})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), strings.Compare(a.shard, b.shard))
	})
	return r
}

// Shards returns the member shard names, sorted.
func (r *Ring) Shards() []string { return slices.Clone(r.shards) }

// Owners returns up to n distinct shards in clockwise order from key: the
// primary owner first, then the shards a hedge or failover should try, in
// order. With n >= the member count it is a permutation of the membership,
// so a caller that walks the whole slice has tried every shard exactly once.
func (r *Ring) Owners(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.shards))
	start, _ := slices.BinarySearchFunc(r.points, key, func(p point, k uint64) int { return cmp.Compare(p.pos, k) })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		// A fleet is a handful of shards, so a scan of out is cheaper than a
		// set.
		if p := r.points[(start+i)%len(r.points)]; !slices.Contains(out, p.shard) {
			out = append(out, p.shard)
		}
	}
	return out
}
