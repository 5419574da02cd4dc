package engine

// Peer cache handoff: the export/import surface behind schedd's /cache
// endpoints (internal/server). When cluster membership changes, the new
// owner of a keyspace segment can fetch individual records from the previous
// owner, and a gracefully departing shard can push its hottest entries to
// their new owners — both in the exact wire form the persistent store uses
// (store.Record), and both through the exact recovery discipline: every
// imported record passes verifyRecord (machine fingerprint check, graph
// re-parse, rehydration + validation against the pristine graph) before it
// becomes servable. A peer is trusted no more than a WAL file on disk.

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/store"
)

// CacheKey returns the content-addressed cache key Schedule would use for
// job, and whether the job is cacheable at all. Identical requests produce
// identical keys on every shard — the graph hash is renumbering-invariant
// and the rest of the key is derived from request parameters — which is what
// lets a shard ask a peer for "my key" and receive "its entry".
func (e *Engine) CacheKey(job Job) (string, bool) {
	key, _, ok := e.keyFor(job)
	return key, ok
}

// HasCached reports whether key is resident, without promoting it.
func (e *Engine) HasCached(key string) bool {
	if e.cache == nil {
		return false
	}
	_, ok := e.cache.peek(key)
	return ok
}

// exportRecord builds the wire form of one cache entry, for a peer and for
// the write-behind flusher alike. The machine must be reconstructible from
// its name with an unchanged fingerprint, because that is what the
// importer's gate and recovery replay re-derive. Entries computed for custom
// or mutated models stay local and in RAM.
func exportRecord(key string, ent entry) (*store.Record, bool) {
	if ent.mach == nil || ent.mach.Name == "" {
		return nil, false
	}
	fp := ent.mach.Fingerprint()
	named, err := machine.Named(ent.mach.Name)
	if err != nil || named.Fingerprint() != fp {
		return nil, false
	}
	return &store.Record{
		Key:         []byte(key),
		Machine:     ent.mach.Name,
		Fingerprint: fp,
		Served:      ent.served,
		Placements:  ent.placements,
		Comms:       ent.comms,
		Graph:       []byte(ent.text),
	}, true
}

// ExportRecord returns the cached entry for key in persisted wire form, or
// false when the key is absent or the entry is not exportable. The lookup
// does not promote: a peer read must not distort this shard's LRU order.
func (e *Engine) ExportRecord(key string) (*store.Record, bool) {
	if e.cache == nil {
		return nil, false
	}
	ent, ok := e.cache.peek(key)
	if !ok {
		return nil, false
	}
	return exportRecord(key, ent)
}

// ExportHottest returns up to k exportable cache entries in
// most-recently-used-first order — the working set a gracefully departing
// shard pushes to the new owners of its keyspace. Unexportable entries are
// skipped, not counted against k's worth of output slots beyond their
// position in the LRU walk.
func (e *Engine) ExportHottest(k int) []*store.Record {
	if e.cache == nil || k <= 0 {
		return nil
	}
	items := e.cache.hottest(k)
	out := make([]*store.Record, 0, len(items))
	for _, it := range items {
		if rec, ok := exportRecord(it.key, it.ent); ok {
			out = append(out, rec)
		}
	}
	return out
}

// ImportRecord admits one record received from a cluster peer, but only
// after it passes verifyRecord — the same legality gate recovery replay
// applies to the local WAL. An accepted record becomes a warm cache entry
// (served as a persisted hit) and is queued for write-behind persistence so
// it survives this shard's own restarts.
func (e *Engine) ImportRecord(rec *store.Record) error {
	if e.cache == nil {
		return errors.New("engine: import requires memoization (cache disabled)")
	}
	ent, err := verifyRecord(rec)
	if err != nil {
		return err
	}
	e.cache.put(string(rec.Key), ent)
	e.enqueuePersist(string(rec.Key), ent)
	return nil
}
