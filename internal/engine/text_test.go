package engine

// Cache entries and the request graph: an entry keeps its graph's text, not
// the graph, so a finished request's graph is collected while its entry
// stays warm, and the text it exports is exactly irtext.String of the graph
// it was produced for — whether the entry was computed here, recovered
// from the store or imported from a peer.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
)

// listJobs builds one job per kernel on each named machine, pinned to the
// list-scheduler rung: the entry's text does not depend on the schedule,
// so the cheapest rung covers every graph.
func listJobs(t *testing.T, machines ...string) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range machines {
		m, err := machine.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range bench.All() {
			jobs = append(jobs, Job{
				ID:       k.Name + "/" + name,
				Graph:    k.Build(m.NumClusters),
				Machine:  m,
				Opts:     robust.Options{Ladder: []robust.Rung{robust.ListRung(m)}},
				LadderID: "rung:list",
			})
		}
	}
	return jobs
}

// pinsIR reports whether a value of a type from package ir is reachable
// from v through pointers, interfaces, structs, slices, arrays and maps.
func pinsIR(v reflect.Value, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Type().Elem().PkgPath() == "repro/internal/ir" {
			return true
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return pinsIR(v.Elem(), seen)
	case reflect.Interface:
		return !v.IsNil() && pinsIR(v.Elem(), seen)
	case reflect.Struct:
		if v.Type().PkgPath() == "repro/internal/ir" {
			return true
		}
		for i := range v.NumField() {
			if pinsIR(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			if pinsIR(v.Index(i), seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if pinsIR(it.Key(), seen) || pinsIR(it.Value(), seen) {
				return true
			}
		}
	}
	return false
}

// checkEntries requires every resident entry of e to reach no ir value and
// to export exactly irtext.String of its job's graph.
func checkEntries(t *testing.T, e *Engine, jobs []Job) {
	t.Helper()
	for _, it := range e.cache.hottest(e.cache.cap) {
		if pinsIR(reflect.ValueOf(it.ent), map[uintptr]bool{}) {
			t.Fatal("a cache entry reaches the graph it was produced for")
		}
	}
	for _, j := range jobs {
		key, _ := e.CacheKey(j)
		rec, ok := e.ExportRecord(key)
		if !ok {
			t.Fatalf("%s: entry missing or not exportable", j.ID)
		}
		if want := irtext.String(j.Graph); string(rec.Graph) != want {
			t.Fatalf("%s: exported graph text differs from irtext.String", j.ID)
		}
	}
}

// roundTrip schedules jobs on an engine with a store, then recovers that
// store into a second engine and imports the first engine's entries into
// a third: the three ways an entry comes to be.
func roundTrip(t *testing.T, jobs []Job) (computed, recovered, imported *Engine) {
	t.Helper()
	dir := t.TempDir()
	computed = New(2, 2*len(jobs))
	if err := computed.AttachStore(PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := computed.RecoverStore(); err != nil {
		t.Fatal(err)
	}
	for _, r := range computed.Batch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := computed.CloseStore(); err != nil {
		t.Fatal(err)
	}

	recovered = New(2, 2*len(jobs))
	if err := recovered.AttachStore(PersistConfig{Dir: dir, NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.CloseStore() })
	if rs, err := recovered.RecoverStore(); err != nil || rs.Replayed != uint64(len(jobs)) {
		t.Fatalf("recovery replayed %d of %d: %v", rs.Replayed, len(jobs), err)
	}

	imported = New(2, 2*len(jobs))
	for _, rec := range computed.ExportHottest(len(jobs)) {
		if err := imported.ImportRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	return computed, recovered, imported
}

// TestExportedGraphTextUnchanged: on every kernel × {raw4, raw16, vliw4},
// an entry computed here, recovered from the store or imported from a peer
// exports irtext.String of the job's graph — the bytes it exported when
// entries kept the graph and rendered it at export — and holds no graph.
func TestExportedGraphTextUnchanged(t *testing.T) {
	jobs := listJobs(t, "raw4", "raw16", "vliw4")
	computed, recovered, imported := roundTrip(t, jobs)
	checkEntries(t, computed, jobs)
	checkEntries(t, recovered, jobs)
	checkEntries(t, imported, jobs)
}
