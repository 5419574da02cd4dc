package engine

import (
	"container/list"
	"sync"

	"repro/internal/machine"
	"repro/internal/schedule"
)

// entry is one memoized scheduling result, stored in canonical instruction
// order (see ir.Canonical) so it can be rehydrated onto any isomorphic graph.
type entry struct {
	// placements[rank] is the placement of the instruction with canonical
	// position rank.
	placements []schedule.Placement
	// comms are the schedule's communications with Value remapped to
	// canonical positions.
	comms []schedule.Comm
	// served names the ladder rung that produced the schedule.
	served string
	// fromStore marks an entry replayed from the crash-safe store at
	// recovery (or imported from a cluster peer) rather than computed by
	// this process; traced hits on such entries report the "persisted-hit"
	// cache path.
	fromStore bool
	// text is the .ddg text (irtext.String) of the graph the entry was
	// produced for, rendered once when the entry is made: it is what an
	// export to a cluster peer or the store carries (export.go). The entry
	// keeps the text rather than the sealed graph, over ten times its
	// size, so the request's graph is collected once the request is done.
	// mach is the model the entry was produced for; models are shared and
	// never mutated by the engine, so holding the pointer is safe and free.
	text string
	mach *machine.Model
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts requests answered from the cache (including rehydrations
	// onto isomorphic graphs).
	Hits uint64
	// Misses counts requests that had to compute a schedule.
	Misses uint64
	// Shared counts requests that neither hit nor computed: they joined an
	// in-flight computation for the same key (singleflight collapse).
	Shared uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Collisions counts cache hits whose rehydrated schedule failed
	// re-validation against the requesting graph — a canonical-hash
	// collision or an order ambiguity — and were recomputed from scratch.
	Collisions uint64
	// Uncacheable counts requests that bypassed the cache (opaque custom
	// ladders or verify memories without an identity).
	Uncacheable uint64
	// Detached counts singleflight waiters that gave up (their context
	// ended) before the flight's leader finished; the leader's result was
	// still delivered to surviving waiters.
	Detached uint64
	// Size and Capacity describe the cache occupancy in entries.
	Size, Capacity int
	// Persist carries the persistent-store counters (write-behind flush
	// queue, recovery outcome, store IO) when a store is attached; see
	// engine.PersistStats. It is captured in the same Stats call as the
	// cache counters so one snapshot describes one moment.
	Persist PersistStats
}

// cache is a mutex-guarded LRU over canonical schedule entries.
type cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element whose Value is *lruItem

	hits, misses, shared, evictions, collisions, uncacheable, detached uint64
}

type lruItem struct {
	key string
	ent entry
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		return nil
	}
	return &cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key, promoting it to most-recently-used. It does
// not bump any counter: whether the lookup becomes a hit or a collision is
// only known after rehydration, so the engine reports the outcome.
func (c *cache) get(key string) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return entry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).ent, true
}

// peek returns the entry for key without promoting it — membership and
// export probes must not distort the LRU order the hottest-K handoff and
// eviction decisions are based on.
func (c *cache) peek(key string) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return entry{}, false
	}
	return el.Value.(*lruItem).ent, true
}

// hotItem is one (key, entry) pair of a hottest-K enumeration.
type hotItem struct {
	key string
	ent entry
}

// hottest returns up to k entries in most-recently-used-first order, without
// promoting anything. It is the cache's view of "what a departing shard
// should hand to its successors": the front of the LRU list is exactly the
// working set recent traffic touched.
func (c *cache) hottest(k int) []hotItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k > c.ll.Len() {
		k = c.ll.Len()
	}
	if k <= 0 {
		return nil
	}
	out := make([]hotItem, 0, k)
	for el := c.ll.Front(); el != nil && len(out) < k; el = el.Next() {
		it := el.Value.(*lruItem)
		out = append(out, hotItem{key: it.key, ent: it.ent})
	}
	return out
}

// put inserts or refreshes an entry, evicting the least-recently-used entry
// when over capacity.
func (c *cache) put(key string, ent entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, ent: ent})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruItem).key)
		c.evictions++
	}
}

func (c *cache) count(counter *uint64) {
	c.mu.Lock()
	*counter++
	c.mu.Unlock()
}

// stats snapshots every counter and the occupancy under one lock
// acquisition, so the returned numbers are mutually consistent — a reader
// never sees, say, an eviction that its hit/miss counters predate.
func (c *cache) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Shared:      c.shared,
		Evictions:   c.evictions,
		Collisions:  c.collisions,
		Uncacheable: c.uncacheable,
		Detached:    c.detached,
		Size:        c.ll.Len(),
		Capacity:    c.cap,
	}
}
