package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// admissionScript drives newAdmission directly through a seeded sequence of
// admits, worker waits, timeouts and finishes under an injected clock, and
// returns the stats() snapshot taken after snapshotAt steps and at the end.
// Everything it does is deterministic: the token buckets read the injected
// clock, and a worker wait either finds a free slot (granted at once) or
// gives up at once on a closed done channel.
func admissionScript(t *testing.T, steps, snapshotAt int) []AdmissionStats {
	t.Helper()
	clk := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clk }
	const workers = 3
	a := newAdmission(TenantConfig{
		Classes: []TenantClass{
			{Name: "gold", Weight: 3, MaxQueue: 4, RatePerSec: 5, Burst: 2, MaxInflight: 2},
			{Name: "silver", Weight: 2, MaxQueue: 3, MaxInflight: 1},
			{Name: "bronze", Weight: 1, MaxQueue: 2, RatePerSec: 1},
		},
		Tenants: map[string]string{
			"g1": "gold", "g2": "gold", "late-gold": "gold",
			"s1": "silver", "s2": "silver",
			"b1": "bronze", "b2": "bronze", "b3": "bronze",
		},
	}, 6, workers, 15, 4, now)

	rng := rand.New(rand.NewSource(31))
	known := []string{"g1", "g2", "s1", "s2", "b1", "b2", "b3"}
	var fresh []string
	var pending, running []*admitGrant // admitted, not yet waiting; holding a worker
	gaveUp := make(chan struct{})
	close(gaveUp)
	pickTenant := func() string {
		switch r := rng.Intn(100); {
		case r < 35:
			return known[rng.Intn(len(known))]
		case r < 45:
			return ""
		case r < 60 && len(fresh) > 0:
			return fresh[rng.Intn(len(fresh))]
		case r < 63 && len(fresh) >= maxTrackedTenants:
			// Assigned to gold but first seen past the tracked-tenant
			// cap: charged to gold's overflow identity.
			return "late-gold"
		default:
			name := "x" + strconv.Itoa(len(fresh))
			fresh = append(fresh, name)
			return name
		}
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	var snaps []AdmissionStats
	for step := 0; step < steps; step++ {
		if step == snapshotAt {
			snaps = append(snaps, a.stats())
		}
		clk = clk.Add(ms(rng.Intn(60)))
		switch r := rng.Intn(100); {
		case r < 45:
			if g, _, _, _ := a.admit(pickTenant()); g != nil {
				pending = append(pending, g)
			}
		case r < 65 && len(pending) > 0:
			i := rng.Intn(len(pending))
			g := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			switch {
			case rng.Intn(10) == 0: // rejected as a bad request after admission
				g.release()
			case len(running) < workers:
				if !a.acquireWorker(g, nil) {
					t.Fatalf("step %d: worker wait with a free slot failed", step)
				}
				running = append(running, g)
			default:
				if a.acquireWorker(g, gaveUp) {
					t.Fatalf("step %d: granted a worker with none free", step)
				}
				a.countTimeout(g)
				g.release()
			}
		case r < 95 && len(running) > 0:
			i := rng.Intn(len(running))
			g := running[i]
			running = append(running[:i], running[i+1:]...)
			wait := ms(rng.Intn(40))
			total := wait + ms(1+rng.Intn(400))
			outcome := rng.Intn(100)
			a.observe(g, wait, total, outcome >= 70)
			if outcome >= 85 { // failed on its deadline
				a.countTimeout(g)
			}
			a.releaseWorker()
			g.release()
		}
	}
	return append(snaps, a.stats())
}

// TestAdmissionStatsGolden pins the admission accounting of a seeded
// script: every aggregate, class and tenant counter, the queue gauges and
// the latency means, across classes with buckets and quotas, overflow
// identities past maxTrackedTenants, worker-wait timeouts and deadline
// failures. Tenants are written one JSON object per line to keep diffs
// readable.
func TestAdmissionStatsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, st := range admissionScript(t, 8000, 400) {
		tenants := st.Tenants
		st.Tenants = nil
		head, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(head)
		buf.WriteString("\n")
		for _, ts := range tenants {
			line, err := json.Marshal(ts)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "admission_stats.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("admission stats differ from %s (run with -update after an intended change)\ngot head:\n%.2000s", path, buf.String())
	}
}
