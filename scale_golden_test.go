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
	"flag"
	"fmt"
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
	checkGolden(t, scaleGoldenPath, "update-scale-golden", *updateScaleGolden, true, got)
}
