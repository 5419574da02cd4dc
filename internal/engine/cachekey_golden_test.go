package engine

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/robust"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestCacheKeysGolden pins the bytes of Engine.CacheKey: persisted stores
// and peers address entries by these keys, so any change to what the key
// hashes, or how, orphans every store written before it. The table covers
// every kernel on raw4, raw16 and vliw4 under the default ladder, every
// robust.Select scheduler name with fallback on and off, verification on
// and off, and two rung budgets.
func TestCacheKeysGolden(t *testing.T) {
	e := New(1, 16)
	var b strings.Builder
	line := func(label string, j Job) {
		key, ok := e.CacheKey(j)
		if !ok {
			t.Fatalf("%s: job not cacheable", label)
		}
		fmt.Fprintf(&b, "%s %s\n", label, hex.EncodeToString([]byte(key)))
	}
	for _, mname := range []string{"raw4", "raw16", "vliw4"} {
		m, err := machine.Named(mname)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range bench.All() {
			line(k.Name+"/"+mname+" default", job(k, m))
		}
		k, _ := bench.ByName("fir")
		g := k.Build(m.NumClusters)
		for _, name := range []string{"convergent", "convergent-tuned", "rawcc", "uas", "pcc", "list"} {
			for _, fallback := range []bool{false, true} {
				ladder, id, err := robust.Select(m, name, fallback, testSeed)
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("fir/%s select=%s fallback=%v", mname, name, fallback), Job{
					Graph: g, Machine: m, LadderID: id,
					Opts: robust.Options{Seed: testSeed, Ladder: ladder},
				})
			}
		}
		for _, verify := range []bool{false, true} {
			for _, timeout := range []time.Duration{0, 250 * time.Millisecond} {
				line(fmt.Sprintf("fir/%s verify=%v timeout=%v", mname, verify, timeout), Job{
					Graph: g, Machine: m,
					Opts: robust.Options{Seed: testSeed, Verify: verify, Timeout: timeout},
				})
			}
		}
	}
	path := filepath.Join("testdata", "cache_keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("cache keys differ from %s: every persisted store would miss\ngot:\n%s", path, got)
	}
}
