package repro

// Differential proof for the zero-allocation hot path: the schedules the
// convergent scheduler produces after the flattened-PrefMap / pooled-scratch
// rewrite must be byte-identical to the ones the original nested-slice
// implementation produced. The original implementation's outputs are frozen
// in testdata/hotpath_golden.json (generated with -update-hotpath-golden
// before the rewrite landed); every kernel × machine × seed combination is
// fingerprinted and compared against that frozen truth.
//
// A second sweep compares the pooled path (core.Schedule, which recycles
// State/PrefMap/scratch through the package pool) against a fresh-allocation
// run of the same pass sequence (core.NewState + core.ScheduleState), so
// buffer recycling is proven inert on live outputs, not just against the
// frozen goldens.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/passes"
)

var updateHotpathGolden = flag.Bool("update-hotpath-golden", false,
	"regenerate testdata/hotpath_golden.json from the current scheduler")

// hotpathSeeds are the noise seeds the differential sweep covers. exp.Seed
// is the one every experiment uses; the others are arbitrary.
var hotpathSeeds = []int64{exp.Seed, 7, 90125}

func hotpathMachines() []*machine.Model {
	return []*machine.Model{machine.Raw(4), machine.Raw(16), machine.Chorus(4)}
}

const hotpathGoldenPath = "testdata/hotpath_golden.json"

// hotpathKey names one sweep cell.
func hotpathKey(kernel, mach string, seed int64) string {
	return fmt.Sprintf("%s/%s/seed%d", kernel, mach, seed)
}

// hotpathSweep fingerprints every kernel × machine × seed cell through
// core.Schedule. A scheduling error is recorded as "error:<message>" so a
// combination that stops (or starts) failing is also a detected divergence.
func hotpathSweep(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, m := range hotpathMachines() {
		seq := passes.ForMachine(m.Name)
		for _, k := range bench.All() {
			g := k.Build(m.NumClusters)
			for _, seed := range hotpathSeeds {
				s, _, err := core.Schedule(g, m, seq, seed)
				key := hotpathKey(k.Name, m.Name, seed)
				if err != nil {
					out[key] = "error:" + err.Error()
					continue
				}
				out[key] = s.Fingerprint()
			}
		}
	}
	return out
}

// TestHotPathByteIdenticalToGolden is the old-path-vs-new-path differential:
// the frozen goldens are the pre-rewrite implementation's schedules.
func TestHotPathByteIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel sweep; skipped in -short")
	}
	got := hotpathSweep(t)

	if *updateHotpathGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(hotpathGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hotpathGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), hotpathGoldenPath)
		return
	}

	data, err := os.ReadFile(hotpathGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-hotpath-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", hotpathGoldenPath, err)
	}
	if len(want) == 0 {
		t.Fatalf("%s holds no fingerprints", hotpathGoldenPath)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: cell missing from current sweep", key)
			continue
		}
		if g != w {
			t.Errorf("%s: schedule diverged from pre-rewrite golden\n  golden:  %s\n  current: %s", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: cell has no golden (regenerate with -update-hotpath-golden)", key)
		}
	}
}

// TestPooledPathMatchesFreshAllocation is the live half of the differential:
// the pooled driver entry point (core.Schedule, which recycles State, PrefMap
// backing and scratch arena through a sync.Pool) must produce byte-identical
// schedules and converged results to a fresh-allocation run of the same pass
// sequence through core.NewState + core.ScheduleState. Each cell runs the
// pooled path twice so the second call schedules on a recycled, previously
// dirtied state.
func TestPooledPathMatchesFreshAllocation(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:3]
	}
	ctx := context.Background()
	for _, m := range hotpathMachines() {
		seq := passes.ForMachine(m.Name)
		for _, k := range kernels {
			g := k.Build(m.NumClusters)
			for _, seed := range hotpathSeeds {
				key := hotpathKey(k.Name, m.Name, seed)

				fresh := core.NewState(g, m, seed)
				fs, fres, ferr := core.ScheduleState(ctx, fresh, seq)

				// First pooled run primes the pool with a state shaped by
				// this graph; the second proves a recycled state converges
				// identically.
				ps1, pres1, perr1 := core.Schedule(g, m, seq, seed)
				ps2, pres2, perr2 := core.Schedule(g, m, seq, seed)

				if (ferr == nil) != (perr1 == nil) || (ferr == nil) != (perr2 == nil) {
					t.Errorf("%s: error disagreement: fresh=%v pooled=%v recycled=%v", key, ferr, perr1, perr2)
					continue
				}
				if ferr != nil {
					continue
				}
				if pf, ff := ps1.Fingerprint(), fs.Fingerprint(); pf != ff {
					t.Errorf("%s: pooled schedule diverged from fresh-allocation schedule\n  fresh:  %s\n  pooled: %s", key, ff, pf)
				}
				if pf, ff := ps2.Fingerprint(), fs.Fingerprint(); pf != ff {
					t.Errorf("%s: recycled-state schedule diverged from fresh-allocation schedule\n  fresh:    %s\n  recycled: %s", key, ff, pf)
				}
				for _, pres := range []*core.Result{pres1, pres2} {
					if !reflect.DeepEqual(pres.Assignment, fres.Assignment) {
						t.Errorf("%s: pooled assignment %v != fresh %v", key, pres.Assignment, fres.Assignment)
					}
					if !reflect.DeepEqual(pres.PreferredTime, fres.PreferredTime) {
						t.Errorf("%s: pooled preferred times %v != fresh %v", key, pres.PreferredTime, fres.PreferredTime)
					}
				}
			}
		}
	}
}
