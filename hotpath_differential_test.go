package repro

// Differential proof for the zero-allocation hot path: the schedules the
// convergent scheduler produces after the flattened-PrefMap / pooled-scratch
// rewrite must be byte-identical to the ones the original nested-slice
// implementation produced. The original implementation's outputs are frozen
// in testdata/hotpath_golden.json (generated with -update-hotpath-golden
// before the rewrite landed); every kernel × machine × seed combination is
// fingerprinted and compared against that frozen truth. Each kernel ×
// machine also has one cell under the served convergent-tuned sequence.
//
// A second sweep compares the pooled path (core.Schedule, which recycles
// State/PrefMap/scratch through the package pool) against a fresh-allocation
// run of the same pass sequence (core.NewState + core.ScheduleState), so
// buffer recycling is proven inert on live outputs, not just against the
// frozen goldens. The same sweep fingerprints the converged preference map
// itself — every weight and both marginal caches, bit for bit — against
// testdata/prefmap_golden.json, so a change to the map's kernels must leave
// the whole pass loop bit-identical, not just the final schedules.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/passes"
)

var (
	updateHotpathGolden = flag.Bool("update-hotpath-golden", false,
		"regenerate testdata/hotpath_golden.json from the current scheduler")
	updatePrefMapGolden = flag.Bool("update-prefmap-golden", false,
		"regenerate testdata/prefmap_golden.json from the current preference-map kernels")
)

// hotpathSeeds are the noise seeds the differential sweep covers. exp.Seed
// is the one every experiment uses; the others are arbitrary.
var hotpathSeeds = []int64{exp.Seed, 7, 90125}

func hotpathMachines() []*machine.Model {
	return []*machine.Model{machine.Raw(4), machine.Raw(16), machine.Chorus(4)}
}

const (
	hotpathGoldenPath = "testdata/hotpath_golden.json"
	prefmapGoldenPath = "testdata/prefmap_golden.json"
)

// hotpathCell is one sweep cell of a kernel on a machine: the pass
// sequence and noise seed it schedules with, and the key that names it.
type hotpathCell struct {
	key  string
	seq  []core.Pass
	seed int64
}

// hotpathCells lists a kernel's cells on m: the machine's published
// sequence at every hotpathSeeds seed, plus the served convergent-tuned
// sequence (passes.TunedForMachine, which runs NOISE and REGPRES) at
// exp.Seed.
func hotpathCells(kernel string, m *machine.Model) []hotpathCell {
	seq := passes.ForMachine(m.Name)
	var cells []hotpathCell
	for _, seed := range hotpathSeeds {
		cells = append(cells, hotpathCell{fmt.Sprintf("%s/%s/seed%d", kernel, m.Name, seed), seq, seed})
	}
	tuned := fmt.Sprintf("%s/%s/tuned/seed%d", kernel, m.Name, exp.Seed)
	return append(cells, hotpathCell{tuned, passes.TunedForMachine(m.Name), exp.Seed})
}

// hotpathSweep fingerprints every kernel × machine × seed cell through
// core.Schedule. A scheduling error is recorded as "error:<message>" so a
// combination that stops (or starts) failing is also a detected divergence.
func hotpathSweep(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, m := range hotpathMachines() {
		for _, k := range bench.All() {
			g := k.Build(m.NumClusters)
			for _, c := range hotpathCells(k.Name, m) {
				s, _, err := core.Schedule(g, m, c.seq, c.seed)
				if err != nil {
					out[c.key] = "error:" + err.Error()
					continue
				}
				out[c.key] = s.Fingerprint()
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
	checkGolden(t, hotpathGoldenPath, "update-hotpath-golden", *updateHotpathGolden, true, got)
}

// checkGolden compares the fingerprints in got against the ones frozen at
// path, or rewrites path from got when update is set (flagName names the
// -update flag for the error messages). complete says got holds every cell
// of the sweep, so a frozen cell missing from got is a divergence too.
func checkGolden(t *testing.T, path, flagName string, update, complete bool, got map[string]string) {
	t.Helper()
	if update {
		if !complete {
			t.Fatalf("-%s needs the full sweep; drop -short", flagName)
		}
		// encoding/json writes map keys sorted, so the file diffs cleanly.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -%s): %v", flagName, err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(want) == 0 {
		t.Fatalf("%s holds no fingerprints", path)
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: cell has no golden in %s (regenerate with -%s)", key, path, flagName)
		} else if g != w {
			t.Errorf("%s: diverged from %s\n  golden:  %s\n  current: %s", key, path, w, g)
		}
	}
	if complete {
		for key := range want {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: cell missing from current sweep", key)
			}
		}
	}
}

// prefMapFingerprint hashes the bits of every weight of w and of both its
// marginal caches, read through the exported accessors, instruction by
// instruction.
func prefMapFingerprint(w *core.PrefMap) string {
	h := sha256.New()
	n, T, C := w.N(), w.Times(), w.Clusters()
	fmt.Fprintf(h, "%d/%d/%d", n, T, C)
	buf := make([]byte, 0, 8*(T*C+T+C))
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for t := 0; t < T; t++ {
			for c := 0; c < C; c++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.At(i, t, c)))
			}
		}
		for c := 0; c < C; c++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.ClusterWeight(i, c)))
		}
		for t := 0; t < T; t++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.TimeWeight(i, t)))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPooledPathMatchesFreshAllocation is the live half of the differential:
// the pooled driver entry point (core.Schedule, which recycles State, PrefMap
// backing and scratch arena through a sync.Pool) must produce byte-identical
// schedules and converged results to a fresh-allocation run of the same pass
// sequence through core.NewState + core.ScheduleState. Each cell runs the
// pooled path twice so the second call schedules on a recycled, previously
// dirtied state. Each fresh run's converged map is fingerprinted against
// testdata/prefmap_golden.json (regenerate with -update-prefmap-golden only
// when a weight is meant to change).
func TestPooledPathMatchesFreshAllocation(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:3]
	}
	ctx := context.Background()
	weights := make(map[string]string)
	for _, m := range hotpathMachines() {
		for _, k := range kernels {
			g := k.Build(m.NumClusters)
			for _, c := range hotpathCells(k.Name, m) {
				key, seq, seed := c.key, c.seq, c.seed

				fresh := core.NewState(g, m, seed)
				fs, fres, ferr := core.ScheduleState(ctx, fresh, seq)
				weights[key] = prefMapFingerprint(fresh.W)

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
	checkGolden(t, prefmapGoldenPath, "update-prefmap-golden", *updatePrefMapGolden, !testing.Short(), weights)
}
