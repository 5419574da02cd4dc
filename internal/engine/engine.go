// Package engine is the batch-scheduling throughput layer: it fans
// scheduling units out over a bounded worker pool, routes every unit through
// the resilient driver (internal/robust), and memoizes results in a
// content-addressed, LRU-bounded schedule cache.
//
// The cache key is a canonical hash of everything that determines a
// schedule: the dependence graph's renumbering-invariant identity
// (ir.Canonical), the machine model's fingerprint, the identity of the
// scheduler ladder (pass sequences and parameters, via core.SequenceID /
// robust.DefaultLadderID), the noise seed, the per-attempt budget, and the
// verification mode. Isomorphic graphs — the same scheduling unit parsed or
// generated under a different topological numbering — therefore share a key:
// cached schedules are stored in canonical instruction order and rehydrated
// onto the requesting graph's numbering. Every rehydrated schedule passes
// sim.Gate against the requesting graph and machine before it is served,
// so a canonical-hash collision can cost a recomputation but never an
// illegal schedule; such events are counted as collisions.
//
// A singleflight layer collapses concurrent requests for the same key into
// one computation, which is what keeps a thundering herd of identical
// requests from multiplying scheduler work under load.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Job is one scheduling unit of a batch.
type Job struct {
	// ID labels the job in results (a file name, kernel name, ...). It has
	// no effect on the cache key.
	ID string
	// Graph is the dependence graph to schedule.
	Graph *ir.Graph
	// Machine is the target machine.
	Machine *machine.Model
	// Opts configures the resilient driver for this job. A nil Opts.Ladder
	// means the default degradation ladder, which the engine can identify
	// and cache; a custom ladder is opaque and requires LadderID to be
	// cacheable.
	Opts robust.Options
	// LadderID identifies a custom Opts.Ladder for the cache key (for
	// example core.SequenceID of the pass sequence behind a single
	// convergent rung). Empty with a custom ladder marks the job
	// uncacheable; empty with the default ladder lets the engine derive
	// robust.DefaultLadderID itself.
	LadderID string
	// Trace, when non-nil, receives this job's observability record (cache
	// path, ladder attempts, per-pass preference-map deltas). It overrides
	// any trace already carried by the batch context, so each job of a batch
	// can have its own. Tracing never changes the produced schedule.
	Trace *obs.Trace
}

// Result is the outcome of one job.
type Result struct {
	// ID echoes the job's label; Index is the job's position in the batch.
	ID    string
	Index int
	// Schedule is the accepted schedule (nil on error). It always
	// references the job's own graph and machine, whether computed fresh or
	// rehydrated from the cache.
	Schedule *schedule.Schedule
	// Served names the ladder rung whose schedule was accepted.
	Served string
	// Report is the resilient driver's attempt report; nil when the result
	// came from the cache or from a flight computed by another job.
	Report *robust.Report
	// Err is the scheduling error, if every rung failed.
	Err error
	// CacheHit says the schedule was rehydrated from the cache; Shared says
	// the job joined another job's in-flight computation.
	CacheHit bool
	Shared   bool
	// Elapsed is the wall-clock time this job took inside the engine.
	Elapsed time.Duration
}

// Engine schedules batches of units over a worker pool with memoization.
// An Engine is safe for concurrent use; a zero Engine is not valid, use New.
type Engine struct {
	workers int
	cache   *cache
	sf      flightGroup
	// persist, when non-nil, mirrors accepted cache entries into a
	// crash-safe store (see persist.go). Set by AttachStore before the
	// engine is used concurrently.
	persist *persister
}

// New returns an engine with the given worker-pool width and cache bound.
// workers <= 0 means GOMAXPROCS; cacheEntries <= 0 disables memoization
// (every job computes, and Stats stays zero).
func New(workers, cacheEntries int) *Engine {
	return &Engine{workers: workers, cache: newCache(cacheEntries)}
}

// Stats returns a snapshot of the engine counters. The cache counters are
// captured atomically — one lock acquisition covers every counter plus the
// occupancy — so hits, misses, and evictions in one snapshot are mutually
// consistent; the persistence counters (flush queue depth included) are
// captured in the same call under the persister's lock.
func (e *Engine) Stats() Stats {
	if e.cache == nil {
		return Stats{}
	}
	st := e.cache.stats()
	if e.persist != nil {
		st.Persist = e.persist.stats()
	}
	return st
}

// Workers returns the worker-pool width a batch of n jobs would use.
func (e *Engine) Workers(n int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Batch schedules every job and returns one result per job, in job order.
// Jobs run concurrently on the engine's worker pool; a failed job reports
// its error in its slot and never affects the others.
func (e *Engine) Batch(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	workers := e.Workers(len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = e.Schedule(ctx, jobs[i])
				results[i].Index = i
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Schedule runs one job through the cache, the singleflight layer, and the
// resilient driver.
func (e *Engine) Schedule(ctx context.Context, job Job) Result {
	t0 := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if job.Trace != nil {
		ctx = obs.WithTrace(ctx, job.Trace)
	}
	tr := obs.FromContext(ctx)
	res := Result{ID: job.ID}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}

	key, canon, cacheable := e.keyFor(job)
	if !cacheable {
		if e.cache != nil {
			e.cache.count(&e.cache.uncacheable)
			tr.SetCachePath(obs.CacheUncacheable)
		} else {
			tr.SetCachePath(obs.CacheDisabled)
		}
		e.compute(ctx, job, &res)
		res.Elapsed = time.Since(t0)
		return res
	}

	if ent, ok := e.cache.get(key); ok {
		if s, err := rehydrate(ent, job, canon); err == nil {
			e.cache.count(&e.cache.hits)
			if ent.fromStore {
				tr.SetCachePath(obs.CachePersistedHit)
			} else {
				tr.SetCachePath(obs.CacheHit)
			}
			res.Schedule, res.Served, res.CacheHit = s, ent.served, true
			res.Elapsed = time.Since(t0)
			return res
		}
		// The key matched but the stored schedule does not fit this graph:
		// a canonical-hash collision or an unresolved symmetry. Compute
		// directly and leave the entry for the graph it does fit.
		e.cache.count(&e.cache.collisions)
		tr.SetCachePath(obs.CacheCollision)
		e.compute(ctx, job, &res)
		res.Elapsed = time.Since(t0)
		return res
	}

	var mine *schedule.Schedule
	var myRep *robust.Report
	ent, err, shared, detached := e.sf.do(ctx, key, func() (entry, error) {
		e.cache.count(&e.cache.misses)
		s, rep, err := robust.Schedule(ctx, job.Graph, job.Machine, job.Opts)
		myRep = rep
		if err != nil {
			return entry{}, err
		}
		mine = s
		ent, ok := canonicalize(s, rep.Served, canon)
		if !ok {
			return entry{}, errWide
		}
		// The graph's text and the machine make the entry exportable to a
		// cluster peer and the store (export.go); they do not affect
		// rehydration. Rendering here, once, keeps the entry from pinning
		// the request's graph.
		ent.text, ent.mach = irtext.String(job.Graph), job.Machine
		// A result produced while a circuit breaker skipped a rung is
		// load-dependent, not content-determined: it is shared with the
		// flight's waiters but never memoized (nor persisted).
		if !rep.Skipped() {
			e.cache.put(key, ent)
			e.enqueuePersist(key, ent)
			if e.persist != nil {
				tr.SetPersisted()
			}
		}
		return ent, nil
	})
	switch {
	case detached:
		// This caller was a waiter whose context ended before the leader
		// finished; the leader's result is preserved for the others.
		e.cache.count(&e.cache.detached)
		tr.SetCachePath(obs.CacheDetached)
		res.Err, res.Shared = err, true
	case err == errWide:
		// The schedule holds a value no entry can: the leader serves its
		// own, and a waiter, which cannot rehydrate it, computes.
		e.cache.count(&e.cache.uncacheable)
		tr.SetCachePath(obs.CacheUncacheable)
		if shared {
			e.compute(ctx, job, &res)
		} else {
			res.Schedule, res.Report, res.Served = mine, myRep, myRep.Served
		}
	case !shared:
		tr.SetCachePath(obs.CacheMiss)
		res.Schedule, res.Report, res.Err = mine, myRep, err
		if myRep != nil {
			res.Served = myRep.Served
		}
	case err != nil:
		e.cache.count(&e.cache.shared)
		tr.SetCachePath(obs.CacheShared)
		res.Err, res.Shared = err, true
	default:
		e.cache.count(&e.cache.shared)
		tr.SetCachePath(obs.CacheShared)
		res.Shared = true
		s, rerr := rehydrate(ent, job, canon)
		if rerr != nil {
			e.cache.count(&e.cache.collisions)
			tr.SetCachePath(obs.CacheCollision)
			e.compute(ctx, job, &res)
		} else {
			res.Schedule, res.Served = s, ent.served
		}
	}
	res.Elapsed = time.Since(t0)
	return res
}

// errWide is the flight result for a computed schedule with a value that
// does not fit an entry's int32 fields; it never reaches a caller.
var errWide = errors.New("engine: schedule does not fit a cache entry")

// compute runs the resilient driver directly, bypassing cache and flights.
func (e *Engine) compute(ctx context.Context, job Job, res *Result) {
	s, rep, err := robust.Schedule(ctx, job.Graph, job.Machine, job.Opts)
	res.Schedule, res.Report, res.Err = s, rep, err
	if rep != nil {
		res.Served = rep.Served
	}
}

// keyFor derives the content-addressed cache key. The boolean reports
// whether the job is cacheable at all; the canonical identity is returned so
// callers do not hash the graph twice.
func (e *Engine) keyFor(job Job) (string, ir.Canonical, bool) {
	if e.cache == nil {
		return "", ir.Canonical{}, false
	}
	ladderID := job.LadderID
	if ladderID == "" {
		if job.Opts.Ladder != nil {
			return "", ir.Canonical{}, false
		}
		// The identity robust.Select gives the default ladder, without
		// building the ladder on every warm hit.
		ladderID = "default:" + robust.DefaultLadderID(job.Machine, job.Opts.Seed)
	}
	// Two jobs with different initial memories can accept different rungs
	// under Verify, and the key does not hash the memory.
	if job.Opts.Verify && job.Opts.InitMemory != nil {
		return "", ir.Canonical{}, false
	}

	canon := job.Graph.Canonical()
	mf := job.Machine.Fingerprint()
	h := sha256.New()
	h.Write(canon.Hash[:])
	h.Write(mf[:])
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	writeStr(ladderID)
	// An empty string where a memory identity was once hashed, so keys,
	// and the stores written under them, stay valid.
	writeStr("")
	var tail [17]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(job.Opts.Seed))
	binary.LittleEndian.PutUint64(tail[8:16], uint64(job.Opts.Timeout))
	if job.Opts.Verify {
		tail[16] = 1
	}
	h.Write(tail[:])
	return string(h.Sum(nil)), canon, true
}

// canonicalize stores a schedule in canonical instruction order. It reports
// false when a value does not fit the entry's int32 fields.
func canonicalize(s *schedule.Schedule, served string, canon ir.Canonical) (entry, bool) {
	pl := make([]placement32, len(s.Placements))
	for i, p := range s.Placements {
		q, ok := narrowPlacement(p)
		if !ok {
			return entry{}, false
		}
		pl[canon.Order[i]] = q
	}
	// A nil comm list stays nil so rehydration reproduces the driver's
	// output byte for byte (reflect.DeepEqual separates nil from empty).
	var comms []comm32
	if len(s.Comms) > 0 {
		comms = make([]comm32, len(s.Comms))
		for k, c := range s.Comms {
			c.Value = canon.Order[c.Value]
			q, ok := narrowComm(c)
			if !ok {
				return entry{}, false
			}
			comms[k] = q
		}
	}
	return entry{placements: pl, comms: comms, served: served}, true
}

// rehydrate maps a canonical entry onto the requesting graph's numbering and
// passes it through sim.Gate there, so nothing illegal can come out of the
// cache.
func rehydrate(ent entry, job Job, canon ir.Canonical) (*schedule.Schedule, error) {
	n := job.Graph.Len()
	if len(ent.placements) != n {
		return nil, fmt.Errorf("engine: cached entry covers %d instructions, graph has %d", len(ent.placements), n)
	}
	pl := make([]schedule.Placement, n)
	for i := 0; i < n; i++ {
		pl[i] = ent.placements[canon.Order[i]].wide()
	}
	var comms []schedule.Comm
	if len(ent.comms) > 0 {
		inv := make([]int, n)
		for i, rank := range canon.Order {
			inv[rank] = i
		}
		comms = make([]schedule.Comm, len(ent.comms))
		for k, c := range ent.comms {
			comms[k] = c.wide()
			comms[k].Value = inv[c.value]
		}
	}
	cand := &schedule.Schedule{Placements: pl, Comms: comms}
	return sim.Gate(cand, job.Graph, job.Machine, job.Opts.Verify, job.Opts.InitMemory)
}
