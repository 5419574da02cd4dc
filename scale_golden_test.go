package repro

// Byte-identity proof for the list scheduler at Figure 10 scale. The
// reservation tables skip cycles on which a cluster cannot inject a value;
// that skip matters most on large random regions, where send ports stay
// saturated for long stretches. The fingerprints in
// testdata/scale_golden.json were frozen from the hash-map reservation
// tables (regenerate with -update-scale-golden only when a schedule change
// is intended) and every scheduler that builds through listsched.Tables
// must keep reproducing them.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
)

var updateScaleGolden = flag.Bool("update-scale-golden", false,
	"regenerate testdata/scale_golden.json from the current scheduler")

const scaleGoldenPath = "testdata/scale_golden.json"

// scaleSweep fingerprints the Figure 10 random regions at 1000 and 2000
// instructions: convergent and UAS on vliw4, convergent and Rawcc on raw16.
func scaleSweep(t *testing.T) map[string]string {
	t.Helper()
	type scheduler struct {
		name string
		run  func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error)
	}
	conv := func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
		s, _, err := core.Schedule(g, m, passes.ForMachine(m.Name), exp.Seed)
		return s, err
	}
	cells := []struct {
		m      *machine.Model
		scheds []scheduler
	}{
		{machine.Chorus(4), []scheduler{{"conv", conv}, {"uas", uas.Schedule}}},
		{machine.Raw(16), []scheduler{{"conv", conv}, {"rawcc", rawcc.Schedule}}},
	}
	out := make(map[string]string)
	for _, c := range cells {
		for _, n := range []int{1000, 2000} {
			g := bench.RandomLayered(n, n/12+4, c.m.NumClusters, exp.Seed)
			for _, s := range c.scheds {
				key := fmt.Sprintf("%s/%s/n%d", s.name, c.m.Name, n)
				sched, err := s.run(g, c.m)
				if err != nil {
					out[key] = "error:" + err.Error()
					continue
				}
				out[key] = sched.Fingerprint()
			}
		}
	}
	return out
}

func TestScaleSchedulesByteIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules 2000-instruction regions; skipped in -short")
	}
	got := scaleSweep(t)
	if *updateScaleGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scaleGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), scaleGoldenPath)
		return
	}
	data, err := os.ReadFile(scaleGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-scale-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", scaleGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d fingerprints, sweep has %d cells", scaleGoldenPath, len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: cell has no golden", key)
		} else if g != w {
			t.Errorf("%s: schedule diverged from golden\n  golden:  %s\n  current: %s", key, w, g)
		}
	}
}
