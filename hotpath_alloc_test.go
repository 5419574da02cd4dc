package repro

// Allocation-regression guards for the hot path. The convergent pass loop
// (core.RunPasses) must perform ZERO heap allocations per application once
// the state is warm — the scratch arena, marginal caches, distance cache and
// level bins are all at their high-water marks after a few runs — and the
// guard pins that with testing.AllocsPerRun so a regression (a new closure,
// a map in a pass, an append past a warm cap) fails the suite rather than
// silently eroding the rewrite.

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/passes"
)

// allocKernels is a structurally varied subset: dense matrix code, a wide
// reduction and a long dependence chain stress different passes, and
// cholesky has the suite's longest time horizon.
func allocKernels(t testing.TB) []bench.Kernel {
	t.Helper()
	var out []bench.Kernel
	for _, k := range bench.All() {
		switch k.Name {
		case "mxm", "sha", "vvmul", "cholesky":
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		t.Fatal("no alloc-guard kernels found")
	}
	return out
}

func TestRunPassesZeroAllocs(t *testing.T) {
	for _, m := range hotpathMachines() {
		seq := passes.ForMachine(m.Name)
		for _, k := range allocKernels(t) {
			t.Run(m.Name+"/"+k.Name, func(t *testing.T) {
				g := k.Build(m.NumClusters)
				s := core.NewState(g, m, exp.Seed)
				// Warm the arena and level bins: weights (and so scratch
				// demand) drift across runs, so give the high-water marks a
				// few runs to settle before measuring.
				for i := 0; i < 5; i++ {
					core.RunPasses(context.Background(), s, seq)
				}
				// The per-source distance cache fills on demand, and which
				// sources the passes consult drifts with the weights; fill
				// it completely so a late first-touch does not show up as a
				// (cached-thereafter) allocation.
				for i := 0; i < g.Len(); i++ {
					s.Distances(i)
				}
				avg := testing.AllocsPerRun(10, func() {
					core.RunPasses(context.Background(), s, seq)
				})
				if avg != 0 {
					t.Errorf("warm RunPasses allocates %.1f times per run, want 0", avg)
				}
			})
		}
	}
}
