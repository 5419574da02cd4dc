package engine

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/robust"
)

// parentStore is a store directory written by an earlier build of the
// engine, and parentCycles the schedule length that build served for each
// of its units. Regenerate both with -update only when the store format is
// meant to change: the point of the fixture is that it was not written by
// the code under test.
const (
	parentStore  = "testdata/parent_store"
	parentCycles = "testdata/parent_store.cycles"
)

// parentStoreJobs are the fixture's units: four kernels on raw4 and vliw4
// under the default ladder.
func parentStoreJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, mname := range []string{"raw4", "vliw4"} {
		m, err := machine.Named(mname)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"vvmul", "fir", "mxm", "jacobi"} {
			k, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("no kernel %s", name)
			}
			jobs = append(jobs, Job{
				ID:      name + "/" + mname,
				Graph:   k.Build(m.NumClusters),
				Machine: m,
				Opts:    robust.Options{Seed: testSeed},
			})
		}
	}
	return jobs
}

// TestParentStoreRecovers: a store written by an earlier build recovers in
// full — every record replayed, none dropped — and every unit is then
// served as a persisted hit with the schedule length that build served.
func TestParentStoreRecovers(t *testing.T) {
	jobs := parentStoreJobs(t)
	if *update {
		writeParentStore(t, jobs)
		return
	}
	want := readParentCycles(t)
	dir := t.TempDir()
	files, err := os.ReadDir(parentStore)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(parentStore, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := New(2, 2*len(jobs))
	if err := e.AttachStore(PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()
	rs, err := e.RecoverStore()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != uint64(len(jobs)) || rs.DroppedCorrupt+rs.DroppedIllegal+rs.DroppedSkewed != 0 ||
		rs.TruncatedTails+rs.SkippedFiles != 0 {
		t.Fatalf("recovery of the parent store: %+v, want %d replayed and nothing dropped", rs, len(jobs))
	}
	for _, j := range jobs {
		j.Trace = &obs.Trace{}
		res := e.Schedule(context.Background(), j)
		if res.Err != nil {
			t.Fatalf("%s: %v", j.ID, res.Err)
		}
		if !res.CacheHit || j.Trace.CachePath != obs.CachePersistedHit {
			t.Errorf("%s: cache path %q, want %q", j.ID, j.Trace.CachePath, obs.CachePersistedHit)
		}
		if got := res.Schedule.Length(); got != want[j.ID] {
			t.Errorf("%s: %d cycles, the parent served %d", j.ID, got, want[j.ID])
		}
	}
}

// writeParentStore regenerates the fixture from the code under test.
func writeParentStore(t *testing.T, jobs []Job) {
	t.Helper()
	if err := os.RemoveAll(parentStore); err != nil {
		t.Fatal(err)
	}
	e := New(2, 2*len(jobs))
	if err := e.AttachStore(PersistConfig{Dir: parentStore, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		fmt.Fprintf(&b, "%s %d\n", r.ID, r.Schedule.Length())
	}
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(parentStore, "LOCK")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parentCycles, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readParentCycles(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(parentCycles)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, n, ok := strings.Cut(sc.Text(), " ")
		cycles, err := strconv.Atoi(n)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", parentCycles, sc.Text())
		}
		want[id] = cycles
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
