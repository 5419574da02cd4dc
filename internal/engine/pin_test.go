//go:build go1.24

package engine

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/bench"
	"repro/internal/machine"
)

// TestCacheEntryDoesNotPinGraph: once a request is done its graph is
// garbage, even though its entry stays resident.
func TestCacheEntryDoesNotPinGraph(t *testing.T) {
	k, _ := bench.ByName("fir")
	e := New(1, 16)
	j := job(k, machine.Chorus(4))
	key, ok := e.CacheKey(j)
	if !ok {
		t.Fatal("job not cacheable")
	}
	wp := weak.Make(j.Graph)
	if res := e.Schedule(context.Background(), j); res.Err != nil {
		t.Fatal(res.Err)
	}
	j = Job{}
	runtime.GC()
	runtime.GC()
	if !e.HasCached(key) {
		t.Fatal("entry evicted")
	}
	if wp.Value() != nil {
		t.Fatal("cache entry keeps the request graph alive")
	}

	// An entry recovered from the store or imported from a peer is made
	// from a graph parsed inside the legality gate, which no test can
	// name, so those entries are held to the rule by walking everything
	// they reach.
	jobs := listJobs(t, "raw4")[:1]
	_, recovered, imported := roundTrip(t, jobs)
	t.Run("recovered", func(t *testing.T) { checkEntries(t, recovered, jobs) })
	t.Run("imported", func(t *testing.T) { checkEntries(t, imported, jobs) })
}
