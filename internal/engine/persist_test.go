package engine_test

// Persistence differentials: a warm-restarted engine must serve exactly the
// schedules the serial robust path computes, and a corrupted store — cut or
// bit-flipped at any byte offset — must never panic recovery and never change
// a single served schedule: corruption costs warm hits, not correctness.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/store"
)

// persistJobs builds one job per kernel on m, pinned to a single scheduler
// rung so reference results are cheap and deterministic.
func persistJobs(t *testing.T, m *machine.Model, kernels []bench.Kernel, scheduler string) []engine.Job {
	t.Helper()
	ladder, _, err := robust.Select(m, scheduler, false, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]engine.Job, len(kernels))
	for i, k := range kernels {
		jobs[i] = engine.Job{
			ID:       k.Name,
			Graph:    k.Build(m.NumClusters),
			Machine:  m,
			Opts:     robust.Options{Seed: diffSeed, Ladder: ladder},
			LadderID: fmt.Sprintf("rung:%s:seed=%d", scheduler, diffSeed),
		}
	}
	return jobs
}

// serialReference schedules every job through the plain robust driver.
func serialReference(t *testing.T, jobs []engine.Job) []*robustResult {
	t.Helper()
	out := make([]*robustResult, len(jobs))
	for i, j := range jobs {
		s, rep, err := robust.Schedule(context.Background(), j.Graph, j.Machine, j.Opts)
		if err != nil {
			t.Fatalf("serial %s: %v", j.ID, err)
		}
		out[i] = &robustResult{s: s, served: rep.Served}
	}
	return out
}

// runAndCompare batches jobs on e and asserts every schedule matches the
// serial reference byte for byte. Returns how many were cache hits.
func runAndCompare(t *testing.T, e *engine.Engine, jobs []engine.Job, want []*robustResult) int {
	t.Helper()
	hits := 0
	for i, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("engine %s: %v", jobs[i].ID, r.Err)
		}
		if r.CacheHit {
			hits++
		}
		if r.Served != want[i].served {
			t.Errorf("%s: served %q, serial served %q", jobs[i].ID, r.Served, want[i].served)
		}
		if !reflect.DeepEqual(r.Schedule.Placements, want[i].s.Placements) ||
			!reflect.DeepEqual(r.Schedule.Comms, want[i].s.Comms) {
			t.Errorf("%s: schedule differs from serial reference", jobs[i].ID)
		}
	}
	return hits
}

// TestWarmRestartMatchesSerial is the acceptance differential: populate a
// store, shut down cleanly, restart into a fresh engine, and every kernel
// must be a warm hit whose schedule is byte-identical to the serial path.
func TestWarmRestartMatchesSerial(t *testing.T) {
	m := machine.Raw(4)
	kernels := sweepKernels(t)
	jobs := persistJobs(t, m, kernels, "convergent")
	want := serialReference(t, jobs)
	dir := t.TempDir()

	e1 := engine.New(4, len(jobs)*2)
	if err := e1.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	if hits := runAndCompare(t, e1, jobs, want); hits != 0 {
		t.Fatalf("cold run reported %d cache hits", hits)
	}
	if err := e1.FlushStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New(4, len(jobs)*2)
	if err := e2.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	rs, err := e2.RecoverStore()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseStore()
	if rs.Replayed != uint64(len(jobs)) {
		t.Fatalf("replayed %d, want %d: %+v", rs.Replayed, len(jobs), rs)
	}
	if hits := runAndCompare(t, e2, jobs, want); hits != len(jobs) {
		t.Fatalf("warm restart hit %d of %d", hits, len(jobs))
	}
	st := e2.Stats()
	if !st.Persist.Enabled || !st.Persist.Recovered || st.Persist.Recovery.Replayed != uint64(len(jobs)) {
		t.Fatalf("persist stats out of step: %+v", st.Persist)
	}
}

// TestWarmRestartKeepsHotSet: the store persists the cache's live set, so a
// restart after far more distinct units than the cache holds brings back
// exactly the most recently scheduled ones, and recovery gate-checks fewer
// than two cache capacities of records rather than every unit ever written.
func TestWarmRestartKeepsHotSet(t *testing.T) {
	const capacity, units = 64, 600
	m, err := machine.Named("vliw4")
	if err != nil {
		t.Fatal(err)
	}
	ladder := []robust.Rung{robust.ListRung(m)}
	jobs := make([]engine.Job, units)
	for i := range jobs {
		g := bench.RandomLayered(24, 4, m.NumClusters, int64(i+1))
		jobs[i] = engine.Job{
			ID:       fmt.Sprintf("rand%d", i),
			Graph:    g,
			Machine:  m,
			Opts:     robust.Options{Seed: diffSeed, Ladder: ladder},
			LadderID: fmt.Sprintf("rung:list:seed=%d", diffSeed),
		}
	}
	cfg := engine.PersistConfig{Dir: t.TempDir(), NoFsync: true}

	e1 := engine.New(1, capacity)
	keys := make(map[string]bool, units)
	for _, j := range jobs {
		key, ok := e1.CacheKey(j)
		if !ok || keys[key] {
			t.Fatalf("%s: not a distinct cacheable unit", j.ID)
		}
		keys[key] = true
	}
	if err := e1.AttachStore(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	// Flushing after every unit pins each append right behind its insert,
	// so every compaction snapshots exactly the cap units before it and
	// the restart depends on the snapshot's recency order.
	for _, j := range jobs {
		if r := e1.Schedule(context.Background(), j); r.Err != nil || r.CacheHit {
			t.Fatalf("%s: err %v, hit %v on a cold unit", j.ID, r.Err, r.CacheHit)
		}
		if err := e1.FlushStore(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New(1, capacity)
	if err := e2.AttachStore(cfg); err != nil {
		t.Fatal(err)
	}
	rs, err := e2.RecoverStore()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseStore()
	if rs.Replayed >= 2*capacity {
		t.Errorf("recovery gate-checked %d records, want < %d: %+v", rs.Replayed, 2*capacity, rs)
	}
	hits := 0
	for _, j := range jobs[units-capacity:] {
		r := e2.Schedule(context.Background(), j)
		if r.Err != nil {
			t.Fatalf("%s: %v", j.ID, r.Err)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != capacity {
		t.Errorf("%d of the %d most recently scheduled units came back warm", hits, capacity)
	}
	t.Logf("replayed %d records; %d of %d hot units warm", rs.Replayed, hits, capacity)
}

// tinyJobs builds jobs over small synthetic graphs (a short chain of adds)
// so a recorded WAL is only a few hundred bytes and an exhaustive per-byte
// corruption sweep stays cheap.
func tinyJobs(t *testing.T, m *machine.Model, n int) []engine.Job {
	t.Helper()
	ladder := []robust.Rung{robust.ListRung(m)}
	jobs := make([]engine.Job, n)
	for i := range jobs {
		g := ir.New(fmt.Sprintf("tiny%d", i))
		a := g.AddConst(int64(i + 1))
		b := g.AddConst(3)
		x := g.Add(ir.Add, a.ID, b.ID)
		g.Add(ir.Mul, x.ID, a.ID)
		jobs[i] = engine.Job{
			ID:       g.Name,
			Graph:    g,
			Machine:  m,
			Opts:     robust.Options{Seed: diffSeed, Ladder: ladder},
			LadderID: fmt.Sprintf("rung:list:seed=%d", diffSeed),
		}
	}
	return jobs
}

// TestCorruptedStoreDifferentialEveryOffset is the robustness property: a
// recorded store truncated or bit-flipped at EVERY byte offset must recover
// without panicking and the engine must still serve schedules identical to
// the serial path — damaged records cost recomputation, never correctness.
// Tiny graphs on the cheap list rung keep the per-offset cost down.
func TestCorruptedStoreDifferentialEveryOffset(t *testing.T) {
	m := machine.Raw(4)
	jobs := tinyJobs(t, m, 3)
	want := serialReference(t, jobs)

	// Record a pristine store once.
	master := t.TempDir()
	e := engine.New(2, 16)
	if err := e.AttachStore(engine.PersistConfig{Dir: master, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	runAndCompare(t, e, jobs, want)
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL recorded (err %v)", err)
	}
	walName := ""
	var walBytes []byte
	for _, w := range wals {
		b, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > len(walBytes) {
			walName, walBytes = filepath.Base(w), b
		}
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	check := func(label string, contents []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), contents, 0o644); err != nil {
			t.Fatal(err)
		}
		e := engine.New(2, 16)
		if err := e.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
			t.Fatalf("%s: attach: %v", label, err)
		}
		rs, err := e.RecoverStore()
		if err != nil {
			t.Fatalf("%s: recovery errored on data damage: %v", label, err)
		}
		if rs.Replayed > uint64(len(jobs)) {
			t.Fatalf("%s: replayed %d records from %d written", label, rs.Replayed, len(jobs))
		}
		runAndCompare(t, e, jobs, want)
		if err := e.CloseStore(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
	for cut := 0; cut <= len(walBytes); cut += stride {
		check(fmt.Sprintf("truncate@%d", cut), walBytes[:cut])
	}
	for off := 0; off < len(walBytes); off += stride {
		mut := make([]byte, len(walBytes))
		copy(mut, walBytes)
		mut[off] ^= 1 << 3
		check(fmt.Sprintf("bitflip@%d", off), mut)
	}
}

// TestForgedRecordsRejectedByGate plants CRC-valid but wrong records in the
// store: a legal-looking schedule that fails validation, and a record whose
// machine fingerprint does not match its name. Recovery must classify both
// and serve nothing illegal.
func TestForgedRecordsRejectedByGate(t *testing.T) {
	m := machine.Raw(4)
	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("no vvmul kernel")
	}
	g := k.Build(m.NumClusters)
	dir := t.TempDir()

	st, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(nil); err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32)
	// Forgery 1: parseable graph, right machine, nonsense placements.
	key[0] = 1
	illegal := &store.Record{
		Key: key, Machine: m.Name, Fingerprint: m.Fingerprint(),
		Served: "convergent", Graph: []byte(irtext.String(g)),
	}
	illegal.Placements = nil // wrong length for the graph
	if err := st.Append(illegal); err != nil {
		t.Fatal(err)
	}
	// Forgery 2: fingerprint drift (the machine was retuned since).
	key2 := make([]byte, 32)
	key2[0] = 2
	drifted := &store.Record{
		Key: key2, Machine: m.Name, Fingerprint: [32]byte{0xAB},
		Served: "convergent", Graph: []byte(irtext.String(g)),
	}
	if err := st.Append(drifted); err != nil {
		t.Fatal(err)
	}
	// Forgery 3: graph that does not parse.
	key3 := make([]byte, 32)
	key3[0] = 3
	garbled := &store.Record{
		Key: key3, Machine: m.Name, Fingerprint: m.Fingerprint(),
		Served: "convergent", Graph: []byte("not irtext at all"),
	}
	if err := st.Append(garbled); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	e := engine.New(2, 16)
	if err := e.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	rs, err := e.RecoverStore()
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()
	if rs.Replayed != 0 {
		t.Fatalf("a forgery was replayed: %+v", rs)
	}
	if rs.DroppedIllegal != 1 || rs.DroppedSkewed != 1 || rs.DroppedCorrupt != 1 {
		t.Fatalf("forgeries misclassified: %+v", rs)
	}
	// The engine still serves correct schedules for the same kernel.
	jobs := persistJobs(t, m, []bench.Kernel{k}, "list")
	runAndCompare(t, e, jobs, serialReference(t, jobs))
}

// TestUnnamedMachineNotPersisted: entries computed for a model that cannot be
// rebuilt from its name at recovery (here, a retuned raw4 whose fingerprint
// drifted) must be skipped by the flusher, not written and later misloaded.
func TestUnnamedMachineNotPersisted(t *testing.T) {
	tuned := machine.Raw(4).WithOpLatency(ir.Mul, 7)
	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("no vvmul kernel")
	}
	jobs := persistJobs(t, tuned, []bench.Kernel{k}, "list")
	dir := t.TempDir()

	e := engine.New(2, 16)
	if err := e.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := e.FlushStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Persist.SkippedUnnamed == 0 {
		t.Fatalf("tuned-machine entry was not skipped: %+v", st.Persist)
	}
	if st.Persist.Flushed != 0 {
		t.Fatalf("tuned-machine entry reached the WAL: %+v", st.Persist)
	}
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New(2, 16)
	if err := e2.AttachStore(engine.PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	rs, err := e2.RecoverStore()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseStore()
	if rs.Replayed != 0 {
		t.Fatalf("replayed %d entries that should never have been persisted", rs.Replayed)
	}
}

// TestFlushQueueBackpressure: with a one-slot queue and no flusher running
// (store attached, recovery not yet started), excess entries are dropped and
// counted instead of blocking the scheduling path.
func TestFlushQueueBackpressure(t *testing.T) {
	m := machine.Raw(4)
	kernels := sweepKernels(t)
	if len(kernels) < 2 {
		t.Skip("need two kernels")
	}
	jobs := persistJobs(t, m, kernels[:2], "list")

	e := engine.New(1, 16)
	if err := e.AttachStore(engine.PersistConfig{Dir: t.TempDir(), NoFsync: true, QueueLen: 1}); err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := e.Stats()
	if st.Persist.Backpressure == 0 {
		t.Fatalf("full queue did not register backpressure: %+v", st.Persist)
	}
	if st.Persist.QueueCapacity != 1 {
		t.Fatalf("queue capacity = %d, want 1", st.Persist.QueueCapacity)
	}
}

// TestStatsDuringPersistedBatch hammers Stats concurrently with a persisted
// batch — the -race proof that the snapshot path takes no shortcuts.
func TestStatsDuringPersistedBatch(t *testing.T) {
	m := machine.Raw(4)
	jobs := persistJobs(t, m, sweepKernels(t), "list")

	e := engine.New(4, 32)
	if err := e.AttachStore(engine.PersistConfig{Dir: t.TempDir(), NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := e.Stats()
				if st.Persist.QueueCapacity == 0 {
					t.Error("stats lost the attached store")
					return
				}
			}
		}
	}()
	for i := 0; i < 4; i++ {
		for _, r := range e.Batch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := e.FlushStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}
}
