package engine

// Write-behind persistence for the schedule cache: accepted cache entries
// are mirrored into a crash-safe store (internal/store) off the hot path,
// and replayed through the pristine-graph legality gate at startup so a
// restarted engine serves warm hits instead of a cold start.
//
// The cache is the store's only live set. Every compaction snapshots the
// resident entries least recently used first, so replay through cache.put
// rebuilds the recency order, and the compaction interval is the cache
// capacity: a snapshot holds at most cap records, the WAL tail after it
// fewer than cap, and a recovery gate-checks fewer than 2·cap.
//
// The flush queue is bounded and lossy by design — persistence is an
// optimization, never a dependency of the serving path. When the flusher
// falls behind, entries are dropped and counted (Backpressure); a dropped
// entry stays served from RAM and is simply recomputed after the next
// restart. Recovery trusts nothing: every replayed record re-parses its
// embedded graph, re-checks the machine fingerprint, and re-validates the
// schedule against the pristine graph and machine before it becomes
// servable, so a record whose CRC is intact but whose content was forged or
// rotted still cannot smuggle an illegal schedule into the cache.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/store"
)

// PersistConfig configures the engine's persistent schedule store.
type PersistConfig struct {
	// Dir is the store directory (created if missing, flock-fenced).
	Dir string
	// FS overrides the store's filesystem seam (fault injection); nil
	// means the real filesystem.
	FS store.FS
	// QueueLen bounds the write-behind flush queue. Default 256.
	QueueLen int
	// NoFsync skips fsyncs (crash-unsafe; tests and benchmarks).
	NoFsync bool
	// Logf receives operational messages; nil discards them.
	Logf func(format string, args ...any)
}

// PersistStats is the persistence slice of the engine's Stats snapshot.
type PersistStats struct {
	// Enabled says a store is attached; Recovered says replay has run.
	Enabled   bool `json:"enabled"`
	Recovered bool `json:"recovered"`
	// Recovery is the startup replay outcome (zero until Recovered).
	Recovery store.RecoveryStats `json:"recovery"`
	// Flushed counts entries appended to the WAL; FlushErrors counts
	// append/sync failures; Backpressure counts entries dropped because
	// the flush queue was full; SkippedUnnamed counts entries that could
	// not be persisted because their machine model is not reconstructible
	// by name (custom or mutated models).
	Flushed        uint64 `json:"flushed"`
	FlushErrors    uint64 `json:"flushErrors"`
	Backpressure   uint64 `json:"backpressure"`
	SkippedUnnamed uint64 `json:"skippedUnnamed"`
	// QueueDepth and QueueCapacity describe the flush queue right now.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// Store carries the store's own counters (generation, snapshots, IO
	// errors).
	Store store.Stats `json:"store"`
}

// persistReq is one unit of flusher work: an entry to persist, or (when
// ack is non-nil) a flush barrier.
type persistReq struct {
	key string
	ent entry
	ack chan struct{}
}

// persister owns the store and the write-behind flusher.
type persister struct {
	st   *store.Store
	logf func(format string, args ...any)
	ch   chan persistReq
	done chan struct{}

	mu           sync.Mutex
	closed       bool
	started      bool
	recovered    bool
	recovery     store.RecoveryStats
	flushed      uint64
	flushErrs    uint64
	backpressure uint64
	skipped      uint64
}

// AttachStore opens the persistent schedule store (directory, lockfile) and
// arms write-behind persistence. Call once, before the engine is used
// concurrently, then call RecoverStore to replay. Requires memoization:
// a cache-less engine has nothing to persist.
func (e *Engine) AttachStore(cfg PersistConfig) error {
	if e.cache == nil {
		return errors.New("engine: persistence requires memoization (cache disabled)")
	}
	if e.persist != nil {
		return errors.New("engine: store already attached")
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	st, err := store.Open(store.Options{
		Dir:           cfg.Dir,
		FS:            cfg.FS,
		NoFsync:       cfg.NoFsync,
		SnapshotEvery: e.cache.cap,
		Live:          e.liveRecords,
	})
	if err != nil {
		return err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e.persist = &persister{
		st:   st,
		logf: logf,
		ch:   make(chan persistReq, cfg.QueueLen),
		done: make(chan struct{}),
	}
	return nil
}

// RecoverStore replays the store through the legality gate into the cache
// and starts the flusher. Every accepted record becomes a warm cache entry;
// the stats say what was replayed and what was dropped, and why. Scheduling
// may already be running concurrently: new results queue behind the
// recovery and flush as soon as it finishes.
func (e *Engine) RecoverStore() (store.RecoveryStats, error) {
	p := e.persist
	if p == nil {
		return store.RecoveryStats{}, errors.New("engine: no store attached")
	}
	p.mu.Lock()
	if p.recovered || p.closed {
		p.mu.Unlock()
		return store.RecoveryStats{}, errors.New("engine: store already recovered or closed")
	}
	p.mu.Unlock()
	rs, err := p.st.Recover(e.loadRecord)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recovery, p.recovered = rs, true
	if err == nil && !p.started && !p.closed {
		p.started = true
		go p.run()
	}
	return rs, err
}

// verifyRecord is the admission check every record from outside the process
// passes — store recovery replay and peer cache handoff alike. It re-verifies
// the record from first principles: the machine must be reconstructible by
// name with an unchanged fingerprint, the embedded graph must re-parse, and
// the stored canonical-order placements must rehydrate onto that pristine
// graph and pass sim.Gate there with validation only. A record carries no
// initial memory, so simulation is left to the hit: a request that asks for
// Verify simulates the rehydrated schedule when it is served.
// Classification: unparseable content is corrupt, an unknown or reshaped
// machine is skewed, and a well-formed record whose schedule fails the gate
// is illegal.
func verifyRecord(rec *store.Record) (entry, error) {
	if len(rec.Key) != sha256.Size {
		return entry{}, fmt.Errorf("%w: key of %d bytes", store.ErrCorrupt, len(rec.Key))
	}
	m, err := machine.Named(rec.Machine)
	if err != nil {
		return entry{}, fmt.Errorf("%w: unknown machine %q", store.ErrSkewed, rec.Machine)
	}
	if m.Fingerprint() != rec.Fingerprint {
		return entry{}, fmt.Errorf("%w: machine %q has changed shape", store.ErrSkewed, rec.Machine)
	}
	g, err := irtext.ParseString(string(rec.Graph))
	if err != nil {
		return entry{}, fmt.Errorf("%w: embedded graph: %v", store.ErrCorrupt, err)
	}
	ent := entry{served: rec.Served, fromStore: true, mach: m}
	// An entry cannot hold a value beyond int32, so a record with one is
	// rejected rather than truncated.
	ent.placements = make([]placement32, len(rec.Placements))
	for i, p := range rec.Placements {
		q, ok := narrowPlacement(p)
		if !ok {
			return entry{}, fmt.Errorf("%w: placement %d out of int32 range", store.ErrCorrupt, i)
		}
		ent.placements[i] = q
	}
	if len(rec.Comms) > 0 {
		ent.comms = make([]comm32, len(rec.Comms))
		for k, c := range rec.Comms {
			q, ok := narrowComm(c)
			if !ok {
				return entry{}, fmt.Errorf("%w: comm %d out of int32 range", store.ErrCorrupt, k)
			}
			ent.comms[k] = q
		}
	}
	if _, err := rehydrate(ent, Job{Graph: g, Machine: m}, g.Canonical()); err != nil {
		return entry{}, fmt.Errorf("legality gate rejected record: %w", err)
	}
	// The entry keeps the graph's text as this engine renders it, not the
	// record's bytes, so what it exports is what a computed entry would.
	ent.text = irtext.String(g)
	return ent, nil
}

// liveRecords is the store's compaction source: the resident exportable
// entries, least recently used first. The store calls it under its own
// mutex; it takes only the cache mutex, never the store's.
func (e *Engine) liveRecords() []*store.Record {
	recs := e.ExportHottest(e.cache.cap)
	slices.Reverse(recs)
	return recs
}

// loadRecord is the recovery gate: verifyRecord, then admission to the cache.
func (e *Engine) loadRecord(rec *store.Record) error {
	ent, err := verifyRecord(rec)
	if err != nil {
		return err
	}
	e.cache.put(string(rec.Key), ent)
	return nil
}

// enqueuePersist hands an accepted cache entry to the flusher without
// blocking the scheduling path. A full queue drops the entry and counts it.
func (e *Engine) enqueuePersist(key string, ent entry) {
	p := e.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	select {
	case p.ch <- persistReq{key: key, ent: ent}:
	default:
		p.backpressure++
	}
}

// FlushStore blocks until everything enqueued before the call is appended
// and synced (or ctx ends). It must not race CloseStore.
func (e *Engine) FlushStore(ctx context.Context) error {
	p := e.persist
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed || !p.started {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	ack := make(chan struct{})
	select {
	case p.ch <- persistReq{ack: ack}:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CloseStore drains the flush queue, syncs, and releases the store. Safe to
// call with no store attached.
func (e *Engine) CloseStore() error {
	p := e.persist
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	started := p.started
	close(p.ch)
	p.mu.Unlock()
	if started {
		<-p.done
	}
	return p.st.Close()
}

// CrashStore abandons the store without flushing or syncing anything — the
// in-process stand-in for SIGKILL in crash-recovery tests. Entries already
// handed to the OS survive exactly as they would a real kill.
func (e *Engine) CrashStore() {
	p := e.persist
	if p == nil {
		return
	}
	p.st.Abort()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	close(p.ch)
	p.mu.Unlock()
	if started {
		<-p.done
	}
}

// run is the flusher: it drains the queue into the WAL, batching fsyncs at
// queue-empty boundaries so a burst of appends pays one sync.
func (p *persister) run() {
	defer close(p.done)
	dirty := false
	sync := func() {
		if !dirty {
			return
		}
		if err := p.st.Sync(); err != nil {
			p.count(&p.flushErrs)
			p.logf("engine: store sync: %v", err)
		}
		dirty = false
	}
	for {
		var req persistReq
		var ok bool
		if dirty {
			select {
			case req, ok = <-p.ch:
			default:
				sync()
				req, ok = <-p.ch
			}
		} else {
			req, ok = <-p.ch
		}
		if !ok {
			sync()
			return
		}
		if req.ack != nil {
			sync()
			close(req.ack)
			continue
		}
		rec, persistable := exportRecord(req.key, req.ent)
		if !persistable {
			p.count(&p.skipped)
			continue
		}
		if err := p.st.Append(rec); err != nil {
			p.count(&p.flushErrs)
			p.logf("engine: store append: %v", err)
			continue
		}
		p.count(&p.flushed)
		dirty = true
	}
}

func (p *persister) count(c *uint64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// stats snapshots the persistence counters in one pass. The store's own
// counters are only read once recovery has finished: Recover holds the store
// mutex for the whole replay, and a /stats scrape must never block on it.
func (p *persister) stats() PersistStats {
	p.mu.Lock()
	recovered := p.recovered
	p.mu.Unlock()
	var st store.Stats
	if recovered {
		st = p.st.Stats()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistStats{
		Enabled:        true,
		Recovered:      p.recovered,
		Recovery:       p.recovery,
		Flushed:        p.flushed,
		FlushErrors:    p.flushErrs,
		Backpressure:   p.backpressure,
		SkippedUnnamed: p.skipped,
		QueueDepth:     len(p.ch),
		QueueCapacity:  cap(p.ch),
		Store:          st,
	}
}
