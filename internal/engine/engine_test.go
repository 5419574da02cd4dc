package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/schedule"
)

const testSeed = 2002

func job(k bench.Kernel, m *machine.Model) Job {
	return Job{
		ID:      k.Name + "/" + m.Name,
		Graph:   k.Build(m.NumClusters),
		Machine: m,
		Opts:    robust.Options{Seed: testSeed},
	}
}

// sameSchedule compares the space-time content of two schedules.
func sameSchedule(a, b *schedule.Schedule) bool {
	return reflect.DeepEqual(a.Placements, b.Placements) && reflect.DeepEqual(a.Comms, b.Comms)
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	k, _ := bench.ByName("mxm")
	m := machine.Chorus(4)
	e := New(2, 16)

	cold := e.Schedule(context.Background(), job(k, m))
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.CacheHit {
		t.Fatal("first request hit the cache")
	}
	warm := e.Schedule(context.Background(), job(k, m))
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if !sameSchedule(cold.Schedule, warm.Schedule) {
		t.Error("cache hit differs from cold run")
	}
	if cold.Schedule.String() != warm.Schedule.String() {
		t.Error("cache hit renders differently from cold run")
	}
	if warm.Served != cold.Served {
		t.Errorf("served rung changed: %q -> %q", cold.Served, warm.Served)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestIsomorphicGraphHitsCache renumbers a kernel and asserts the renumbered
// copy is served from the cache with a schedule that is legal — and the same
// length — on its own numbering.
func TestIsomorphicGraphHitsCache(t *testing.T) {
	k, _ := bench.ByName("jacobi")
	m := machine.Raw(4)
	e := New(2, 16)

	base := job(k, m)
	cold := e.Schedule(context.Background(), base)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		perm := ir.RandomRenumbering(base.Graph, seed)
		rg, err := ir.Renumber(base.Graph, perm)
		if err != nil {
			t.Fatal(err)
		}
		iso := base
		iso.ID = "renumbered"
		iso.Graph = rg
		res := e.Schedule(context.Background(), iso)
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if !res.CacheHit {
			// An unresolved symmetry may have forced a recompute; that is
			// a collision, not a correctness failure — but it must be
			// counted as such, not silently missed.
			if e.Stats().Collisions == 0 {
				t.Errorf("seed %d: isomorphic graph neither hit nor collided", seed)
			}
			continue
		}
		if res.Schedule.Graph != rg {
			t.Fatalf("seed %d: rehydrated schedule references the wrong graph", seed)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("seed %d: rehydrated schedule invalid: %v", seed, err)
		}
		if res.Schedule.Length() != cold.Schedule.Length() {
			t.Errorf("seed %d: rehydrated length %d != cold %d", seed, res.Schedule.Length(), cold.Schedule.Length())
		}
	}
}

func TestBatchPreservesOrderAndIsolatesFailures(t *testing.T) {
	m := machine.Chorus(4)
	k1, _ := bench.ByName("vvmul")
	k2, _ := bench.ByName("fir")

	// The middle job carries a ladder whose only rung always fails.
	bad := Job{
		ID:      "bad",
		Graph:   k1.Build(4),
		Machine: m,
		Opts: robust.Options{Ladder: []robust.Rung{{
			Name: "broken",
			Run:  func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) { panic("injected") },
		}}},
	}
	jobs := []Job{job(k1, m), bad, job(k2, m)}
	res := New(3, 16).Batch(context.Background(), jobs)
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.Index != i || r.ID != jobs[i].ID {
			t.Errorf("result %d is %s/%d", i, r.ID, r.Index)
		}
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil {
		t.Error("broken job reported no error")
	}
}

// TestVerifyWithMemoryUncacheable: the key does not hash an initial
// memory, so a Verify job that carries one must not be cached; without
// Verify the memory is never read and the job keys as usual.
func TestVerifyWithMemoryUncacheable(t *testing.T) {
	k, _ := bench.ByName("vvmul")
	m := machine.Chorus(4)
	e := New(1, 16)
	j := job(k, m)
	j.Opts.InitMemory = k.InitMemory(4)
	if _, ok := e.CacheKey(j); !ok {
		t.Error("job with an unread initial memory not cacheable")
	}
	j.Opts.Verify = true
	if _, ok := e.CacheKey(j); ok {
		t.Error("verify job with an initial memory cacheable")
	}
}

func TestCustomLadderUncacheableWithoutID(t *testing.T) {
	k, _ := bench.ByName("vvmul")
	m := machine.Chorus(4)
	e := New(1, 16)

	seq := passes.VliwSequence()
	custom := Job{
		ID:      "custom",
		Graph:   k.Build(4),
		Machine: m,
		Opts:    robust.Options{Ladder: []robust.Rung{robust.ConvergentRung("convergent", m, seq, testSeed)}},
	}
	for i := 0; i < 2; i++ {
		if r := e.Schedule(context.Background(), custom); r.Err != nil || r.CacheHit {
			t.Fatalf("run %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	st := e.Stats()
	if st.Uncacheable != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 2 uncacheable", st)
	}

	// The same ladder with an identity becomes cacheable.
	custom.LadderID = "tune:" + core.SequenceID(seq)
	if r := e.Schedule(context.Background(), custom); r.Err != nil || r.CacheHit {
		t.Fatalf("identified cold run: err=%v hit=%v", r.Err, r.CacheHit)
	}
	if r := e.Schedule(context.Background(), custom); r.Err != nil || !r.CacheHit {
		t.Fatalf("identified warm run: err=%v hit=%v", r.Err, r.CacheHit)
	}
}

func TestKeySeparatesMachinesSeedsAndSequences(t *testing.T) {
	k, _ := bench.ByName("fir")
	e := New(1, 64)
	base := job(k, machine.Chorus(4))

	variants := []Job{
		base,
		job(k, machine.Chorus(8)),
		{ID: "latency", Graph: base.Graph, Machine: machine.Chorus(4).WithOpLatency(ir.FMul, 9), Opts: base.Opts},
		{ID: "seed", Graph: base.Graph, Machine: base.Machine, Opts: robust.Options{Seed: testSeed + 1}},
	}
	keys := map[string]string{}
	for _, j := range variants {
		key, _, ok := e.keyFor(j)
		if !ok {
			t.Fatalf("%s: uncacheable", j.ID)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("%s and %s share a cache key", j.ID, prev)
		}
		keys[key] = j.ID
	}
}

func TestLRUEvicts(t *testing.T) {
	m := machine.Chorus(4)
	e := New(1, 2)
	names := []string{"vvmul", "fir", "yuv"}
	for _, n := range names {
		k, _ := bench.ByName(n)
		if r := e.Schedule(context.Background(), job(k, m)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction at size 2", st)
	}
	// The oldest entry (vvmul) is gone; rescheduling it misses.
	k, _ := bench.ByName("vvmul")
	if r := e.Schedule(context.Background(), job(k, m)); r.CacheHit {
		t.Error("evicted entry still hit")
	}
}

func TestNoCacheEngine(t *testing.T) {
	k, _ := bench.ByName("vvmul")
	e := New(1, 0)
	for i := 0; i < 2; i++ {
		if r := e.Schedule(context.Background(), job(k, machine.Chorus(4))); r.Err != nil || r.CacheHit {
			t.Fatalf("run %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	if st := e.Stats(); st != (Stats{}) {
		t.Errorf("cacheless engine has stats %+v", st)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k, _ := bench.ByName("vvmul")
	res := New(2, 4).Batch(ctx, []Job{job(k, machine.Chorus(4))})
	if res[0].Err == nil {
		t.Error("cancelled batch reported no error")
	}
}
