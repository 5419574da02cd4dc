package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/store"
)

// TestExportRecordsGolden pins the bytes of every store.Record the engine
// writes to its WAL and sends to a peer: the SHA-256 of each gob-encoded
// record, as the store frames it, for every kernel on raw4, raw16 and vliw4
// plus one 2000-instruction random region on vliw4, from an entry computed
// here, one recovered from the store and one imported from a peer. However
// the cache holds an entry in memory, what it exports must not move, or
// stores and peers running another build would see different records.
func TestExportRecordsGolden(t *testing.T) {
	jobs := listJobs(t, "raw4", "raw16", "vliw4")
	vliw4, err := machine.Named("vliw4")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, Job{
		ID:       "random2000/vliw4",
		Graph:    bench.RandomLayered(2000, 2000/12+4, vliw4.NumClusters, testSeed),
		Machine:  vliw4,
		Opts:     robust.Options{Ladder: []robust.Rung{robust.ListRung(vliw4)}},
		LadderID: "rung:list",
	})
	computed, recovered, imported := roundTrip(t, jobs)
	var b strings.Builder
	for _, src := range []struct {
		name string
		e    *Engine
	}{{"computed", computed}, {"recovered", recovered}, {"imported", imported}} {
		for _, j := range jobs {
			key, _ := src.e.CacheKey(j)
			rec, ok := src.e.ExportRecord(key)
			if !ok {
				t.Fatalf("%s %s: entry missing or not exportable", src.name, j.ID)
			}
			// The payload exactly as store.Append frames it.
			rec.V = store.RecordVersion
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			fmt.Fprintf(&b, "%s %s %s\n", src.name, j.ID, hex.EncodeToString(sum[:]))
		}
	}
	path := filepath.Join("testdata", "export_records.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("exported records differ from %s: stores and peers of other builds would disagree\ngot:\n%s", path, got)
	}
}
