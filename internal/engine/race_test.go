package engine

// Stress test for the concurrent cache path, meant to run under -race: many
// goroutines submit overlapping keys simultaneously; the singleflight guard
// must collapse duplicate in-flight work to one computation per key, and the
// counters must add up exactly.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
)

func TestConcurrentOverlappingKeys(t *testing.T) {
	const (
		goroutines = 16
		perG       = 8 // requests per goroutine
	)
	// K distinct keys: two kernels x two machines.
	type variant struct {
		k bench.Kernel
		m *machine.Model
	}
	var variants []variant
	for _, name := range []string{"vvmul", "fir"} {
		k, _ := bench.ByName(name)
		variants = append(variants, variant{k, machine.Chorus(4)}, variant{k, machine.Raw(4)})
	}
	K := len(variants)

	// computes counts how many times the underlying scheduler actually ran,
	// via a counting ladder with a stable identity.
	var computes atomic.Uint64
	jobFor := func(v variant) Job {
		g := v.k.Build(v.m.NumClusters)
		rung := robust.ListRung(v.m)
		counted := robust.Rung{
			Name: rung.Name,
			Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
				computes.Add(1)
				return rung.Run(ctx, g)
			},
		}
		return Job{
			ID:       v.k.Name + "/" + v.m.Name,
			Graph:    g,
			Machine:  v.m,
			Opts:     robust.Options{Ladder: []robust.Rung{counted}},
			LadderID: "race-test:list",
		}
	}

	e := New(goroutines, K*2)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	results := make(chan Result, goroutines*perG)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				v := variants[(gi+r)%K]
				res := e.Schedule(context.Background(), jobFor(v))
				if res.Err != nil {
					errs <- fmt.Errorf("g%d r%d %s: %w", gi, r, v.k.Name, res.Err)
					return
				}
				results <- res
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}

	total := uint64(0)
	for range results {
		total++
	}
	if total != goroutines*perG {
		t.Fatalf("%d results, want %d", total, goroutines*perG)
	}

	st := e.Stats()
	// Each distinct key computes exactly once: singleflight collapses
	// concurrent duplicates, the cache absorbs later ones.
	if got := computes.Load(); got != uint64(K) {
		t.Errorf("scheduler ran %d times for %d distinct keys", got, K)
	}
	if st.Misses != uint64(K) {
		t.Errorf("misses = %d, want %d", st.Misses, K)
	}
	// Every other request was served either from the cache or by joining an
	// in-flight computation; nothing may be lost or double-counted.
	if st.Hits+st.Shared+st.Misses != total {
		t.Errorf("hits(%d) + shared(%d) + misses(%d) != %d requests (stats %+v)",
			st.Hits, st.Shared, st.Misses, total, st)
	}
	if st.Uncacheable != 0 || st.Collisions != 0 {
		t.Errorf("unexpected uncacheable/collisions: %+v", st)
	}
}

// TestStatsSnapshotDuringBatch hammers Stats from several goroutines while a
// batch runs, meant for -race: every read must be one consistent
// mutex-guarded snapshot, and monotone counters must never step backwards
// across successive snapshots.
func TestStatsSnapshotDuringBatch(t *testing.T) {
	m := machine.Chorus(4)
	var jobs []Job
	for _, name := range []string{"vvmul", "fir", "yuv"} {
		k, _ := bench.ByName(name)
		for i := 0; i < 4; i++ {
			jobs = append(jobs, Job{
				ID:      fmt.Sprintf("%s/%d", name, i),
				Graph:   k.Build(m.NumClusters),
				Machine: m,
				Opts:    robust.Options{Seed: 2002},
			})
		}
	}
	e := New(4, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.Hits < prev.Hits || st.Misses < prev.Misses ||
					st.Shared < prev.Shared || st.Detached < prev.Detached {
					t.Errorf("counters stepped backwards: %+v then %+v", prev, st)
					return
				}
				prev = st
			}
		}()
	}
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Error(r.Err)
		}
	}
	close(stop)
	readers.Wait()
	st := e.Stats()
	if st.Hits+st.Shared+st.Misses != uint64(len(jobs)) {
		t.Errorf("hits(%d)+shared(%d)+misses(%d) != %d jobs", st.Hits, st.Shared, st.Misses, len(jobs))
	}
}

// TestConcurrentBatches drives whole Batch calls from several goroutines at
// once against one shared engine — the production shape when multiple
// experiment tables share a process.
func TestConcurrentBatches(t *testing.T) {
	m := machine.Chorus(4)
	var jobs []Job
	for _, name := range []string{"vvmul", "fir", "yuv"} {
		k, _ := bench.ByName(name)
		jobs = append(jobs, Job{
			ID:      name,
			Graph:   k.Build(m.NumClusters),
			Machine: m,
			Opts:    robust.Options{Seed: 2002},
		})
	}
	e := New(4, 16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range e.Batch(context.Background(), jobs) {
				if r.Err != nil {
					t.Error(r.Err)
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Misses != uint64(len(jobs)) {
		t.Errorf("misses = %d, want %d (stats %+v)", st.Misses, len(jobs), st)
	}
}
