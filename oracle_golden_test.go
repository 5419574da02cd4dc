package repro

// The optimality-gap table pinned in the tree. BENCH_oracle.json at the
// repository root is the report `experiments -exp oracle -oracle-out
// BENCH_oracle.json` writes: every kernel's certified lower bound, node
// count, served ladder cycles, tuned and default sequence cycles and gaps.
// The sweep has no wall-clock budget and is deterministic, so any change in
// bounds, search effort or served schedule quality shows up here byte for
// byte. Regenerate with -update-oracle-golden only when such a change is
// intended.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
)

var updateOracleGolden = flag.Bool("update-oracle-golden", false,
	"rewrite BENCH_oracle.json from the current oracle sweep")

const oracleGoldenPath = "BENCH_oracle.json"

func TestOracleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the oracle sweep takes about 10 s")
	}
	sum, err := exp.Oracle(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the bytes cmd/experiments writes for -exp oracle.
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateOracleGolden {
		if err := os.WriteFile(oracleGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(oracleGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-oracle-golden)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for k := 0; k < len(gl) && k < len(wl); k++ {
		if gl[k] != wl[k] {
			t.Fatalf("%s line %d: got %q, want %q", oracleGoldenPath, k+1, gl[k], wl[k])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", oracleGoldenPath, len(gl), len(wl))
}
