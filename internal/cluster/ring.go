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
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

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
// hedging/failover sequence. Membership changes move only the keys adjacent
// to the changed shard's points (~1/n of the keyspace), which is what keeps
// a shard's content-addressed cache valid across other shards' joins and
// leaves. A Ring is safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points []point // sorted by pos
	shards map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{shards: make(map[string]bool)} }

// Add inserts a shard's virtual points. Adding a present shard is a no-op.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	for i := 0; i < replicas; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", shard, i)))
		r.points = append(r.points, point{pos: binary.BigEndian.Uint64(sum[:8]), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

// Remove deletes a shard's virtual points. Removing an absent shard is a
// no-op.
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Clone returns an independent snapshot of the ring. The gateway keeps the
// pre-change ring across each membership mutation so it can tell a new owner
// which shard held a key before the change (the peer-lookup hint).
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{shards: make(map[string]bool, len(r.shards))}
	for s := range r.shards {
		c.shards[s] = true
	}
	c.points = append([]point(nil), r.points...)
	return c
}

// Shards returns the member shard names, sorted.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len is the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// Owners returns up to n distinct shards in clockwise order from key: the
// primary owner first, then the shards a hedge or failover should try, in
// order. With n >= Len it is a permutation of the membership, so a caller
// that walks the whole slice has tried every shard exactly once.
func (r *Ring) Owners(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= key })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
