package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/robust"
)

// ResilienceRow is one cell of the resilience matrix: which rung of the
// degradation ladder served a kernel under one injected fault class, after
// how many failed attempts.
type ResilienceRow struct {
	Machine string
	Kernel  string
	Class   string
	// Served names the rung whose schedule was accepted; empty means every
	// rung failed (which the resilience contract forbids).
	Served string
	// FailedRungs counts the attempts rejected before the serving one.
	FailedRungs int
	// FirstError is the first failed attempt's stage and message, so the
	// table shows what the injected fault actually did.
	FirstError string
	// Millis is the wall-clock cost of the whole ladder walk.
	Millis float64
}

// Resilience sweeps every chaos class over the given kernels and machines,
// scheduling each through the resilient driver with full verification
// against reference execution. A row with an empty Served column is a
// resilience bug; the sweep itself returns an error only for unknown
// kernel names, never for injected faults — surviving them is the point.
func Resilience(machines []*machine.Model, kernels []string, timeout time.Duration) ([]ResilienceRow, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var rows []ResilienceRow
	for _, m := range machines {
		for _, name := range kernels {
			k, err := bench.Get(name)
			if err != nil {
				return nil, err
			}
			g := k.Build(m.NumClusters)
			mem := k.InitMemory(m.NumClusters)
			for _, class := range faultinject.Classes() {
				chaos := faultinject.Chaos{Class: class, Seed: Seed, Stall: 10 * timeout}
				ladder, _, err := chaos.Ladder(m, Seed)
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				_, rep, _ := robust.Schedule(context.Background(), g, m, robust.Options{
					Ladder:     ladder,
					Timeout:    timeout,
					Verify:     true,
					InitMemory: mem,
				})
				row := ResilienceRow{
					Machine: m.Name,
					Kernel:  name,
					Class:   class,
					Served:  rep.Served,
					Millis:  float64(time.Since(t0).Microseconds()) / 1000,
				}
				if failed := rep.Failed(); len(failed) > 0 {
					row.FailedRungs = len(failed)
					row.FirstError = fmt.Sprintf("%s: %.60s", failed[0].Stage, failed[0].Error())
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
