package exp

// Golden-file tests for the rendered experiment tables. The batch engine
// changed how the convergent columns are *computed* (concurrently, through
// the schedule cache); these goldens pin down that it changed nothing about
// what is *reported* — cycle counts, speedups, serving rungs, degradation
// notes — byte for byte. Regenerate with:
//
//	go test ./internal/exp -run TestGolden -update

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/passes"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: rendered output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", RenderTable2(rows))
}

func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8.golden", RenderFig8(rows))
}

func TestGoldenAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation.golden", RenderAblations(rows))
}

// TestGoldenConvergence pins Figures 7 and 9 exactly: for every benchmark,
// the count of instructions whose preferred cluster changed at each pass.
// The rendered heat map is too coarse to notice a single moved instruction;
// this golden is not.
func TestGoldenConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	for _, c := range []struct {
		golden string
		m      *machine.Model
		suite  []bench.Kernel
		seq    []core.Pass
	}{
		{"fig7.golden", machine.Raw(16), bench.RawSuite(), passes.RawSequence()},
		{"fig9.golden", machine.Chorus(4), bench.VliwSuite(), passes.VliwSequence()},
	} {
		var b strings.Builder
		for ri, r := range Convergence(c.m, c.suite, c.seq) {
			n := c.suite[ri].Build(c.m.NumClusters).Len()
			fmt.Fprintf(&b, "%s n=%d", r.Benchmark, n)
			for pi, p := range r.Passes {
				fmt.Fprintf(&b, " %s=%d", p, int(math.Round(r.Fractions[pi]*float64(n))))
			}
			b.WriteByte('\n')
		}
		checkGolden(t, c.golden, b.String())
	}
}

// TestGoldenWorkerWidthInvariance schedules Table 2's cheapest slice at
// worker width 1 and width 4 and asserts identical rows — the determinism
// claim behind the goldens, checked directly rather than via bytes.
func TestGoldenWorkerWidthInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	defer func(w int) { Workers = w }(Workers)

	Workers = 1
	serial, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	Workers = 4
	parallel, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs across worker widths:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}
