package robust_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/robust"
)

// TestPoisonedPassFallsThroughToBaseline is the headline degradation
// scenario: a panicking pass poisons both convergent rungs, and the ladder
// demonstrably falls through to the machine's baseline scheduler.
func TestPoisonedPassFallsThroughToBaseline(t *testing.T) {
	cases := []struct {
		m        *machine.Model
		kernel   string
		baseline string
	}{
		{machine.Raw(16), "jacobi", "rawcc"},
		{machine.Chorus(4), "vvmul", "uas"},
	}
	for _, tc := range cases {
		k := mustKernel(t, tc.kernel)
		g := k.Build(tc.m.NumClusters)
		chaos := faultinject.Chaos{Class: faultinject.ChaosPassPanic, Seed: 1}
		ladder, _, err := chaos.Ladder(tc.m, 2002)
		if err != nil {
			t.Fatalf("%s: %v", tc.m.Name, err)
		}
		s, rep, err := robust.Schedule(context.Background(), g, tc.m, robust.Options{
			Ladder:     ladder,
			Verify:     true,
			InitMemory: k.InitMemory(tc.m.NumClusters),
		})
		if err != nil {
			t.Fatalf("%s/%s: %v\n%s", tc.m.Name, tc.kernel, err, rep)
		}
		if rep.Served != tc.baseline {
			t.Errorf("%s/%s: served by %q, want baseline %q\n%s", tc.m.Name, tc.kernel, rep.Served, tc.baseline, rep)
		}
		for i := 0; i < 2; i++ {
			a := rep.Attempts[i]
			if a.Err == nil || a.Err.Stage != robust.StagePanic {
				t.Errorf("%s/%s: poisoned rung %d reported %v, want panic", tc.m.Name, tc.kernel, i, a.Err)
			}
			if !strings.Contains(a.Rung, "!pass-panic") {
				t.Errorf("%s/%s: rung %q does not name the injected fault", tc.m.Name, tc.kernel, a.Rung)
			}
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s/%s: baseline schedule invalid: %v", tc.m.Name, tc.kernel, err)
		}
	}
}

// TestStalledPassDeadlinesToBaseline: a stalled pass exhausts the
// per-attempt budget on both convergent rungs; the deadline abandons them
// and the baseline serves.
func TestStalledPassDeadlinesToBaseline(t *testing.T) {
	m := machine.Chorus(4)
	k := mustKernel(t, "vvmul")
	g := k.Build(4)
	chaos := faultinject.Chaos{Class: faultinject.ChaosPassStall, Seed: 1, Stall: 5 * time.Second}
	ladder, _, err := chaos.Ladder(m, 2002)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := robust.Schedule(context.Background(), g, m, robust.Options{
		Ladder:     ladder,
		Timeout:    80 * time.Millisecond,
		Verify:     true,
		InitMemory: k.InitMemory(4),
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if rep.Served != "uas" {
		t.Errorf("served by %q, want uas\n%s", rep.Served, rep)
	}
	for i := 0; i < 2; i++ {
		if a := rep.Attempts[i]; a.Err == nil || a.Err.Stage != robust.StageDeadline {
			t.Errorf("stalled rung %d reported %v, want deadline", i, rep.Attempts[i].Err)
		}
	}
}

// TestEveryKernelSurvivesEveryChaosClass is the acceptance sweep: for every
// kernel in the bench registry, on raw16 and vliw4, under every chaos class,
// robust.Schedule returns a schedule that validates against the pristine
// graph and machine and simulates to the reference answer, with the report
// naming the serving rung. Nothing in this test may panic or return an
// error — that is the whole point of the package.
func TestEveryKernelSurvivesEveryChaosClass(t *testing.T) {
	machines := []*machine.Model{machine.Raw(16), machine.Chorus(4)}
	served := map[string]int{}
	for _, m := range machines {
		for _, name := range bench.Names() {
			k := mustKernel(t, name)
			g := k.Build(m.NumClusters)
			mem := k.InitMemory(m.NumClusters)
			for _, class := range faultinject.Classes() {
				chaos := faultinject.Chaos{Class: class, Seed: 7, Stall: 5 * time.Second}
				ladder, _, err := chaos.Ladder(m, 2002)
				if err != nil {
					t.Fatalf("%s: %v", class, err)
				}
				opt := robust.Options{Ladder: ladder, Verify: true, InitMemory: mem}
				if class == faultinject.ChaosPassStall {
					// The stall must lose to the budget, not be waited out.
					opt.Timeout = 100 * time.Millisecond
				}
				s, rep, err := robust.Schedule(context.Background(), g, m, opt)
				if err != nil {
					t.Errorf("%s/%s under %s: no rung served: %v\n%s", m.Name, name, class, err, rep)
					continue
				}
				if rep.Served == "" {
					t.Errorf("%s/%s under %s: report names no serving rung", m.Name, name, class)
				}
				served[rep.Served]++
				if s.Graph != g || s.Machine != m {
					t.Errorf("%s/%s under %s: schedule not attached to pristine inputs", m.Name, name, class)
				}
				if err := s.Validate(); err != nil {
					t.Errorf("%s/%s under %s: served schedule invalid: %v", m.Name, name, class, err)
				}
			}
		}
	}
	t.Logf("serving rungs across the sweep: %v", served)
}
