// Package repro's root benchmarks time the scheduler: the Table 1 pass
// sequences, the Fig. 7 and Fig. 9 convergence sweeps, the Fig. 10
// compile-time scaling, ablations for the design choices DESIGN.md calls
// out, and the hot paths (list scheduler, preference map, simulator, gate,
// engine).
//
// The paper's tables and figures themselves are regenerated by
// cmd/experiments (go run ./cmd/experiments -exp table2), whose rows come
// from internal/exp; that package is the one definition of every quality
// figure. Benchmarks that report a figure's data call into it
// (exp.Convergence) rather than re-deriving it. Fig. 10 is the exception
// by nature: its y value is the ns/op of BenchmarkFig10Scalability.
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/regalloc"
	"repro/internal/robust"
	"repro/internal/sim"
)

// BenchmarkTable1PassSequences measures the cost of one convergent pass
// sequence application per machine (Table 1 is configuration, so the
// benchmark times the configured sequences themselves on a mid-size graph).
func BenchmarkTable1PassSequences(b *testing.B) {
	cases := []struct {
		label string
		m     *machine.Model
		seq   []core.Pass
	}{
		{"raw16", machine.Raw(16), passes.RawSequence()},
		{"vliw4", machine.Chorus(4), passes.VliwSequence()},
		{"vliw4-published", machine.Chorus(4), passes.PublishedVliwSequence()},
	}
	k, _ := bench.ByName("mxm")
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			g := k.Build(c.m.NumClusters)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunPasses(context.Background(), core.NewState(g, c.m, exp.Seed), c.seq)
			}
		})
	}
}

// BenchmarkFig7Convergence regenerates Figure 7's data: the per-pass
// spatial churn on Raw, reporting the total fraction of preference changes
// summed over passes (the figure's area).
func BenchmarkFig7Convergence(b *testing.B) {
	m := machine.Raw(16)
	for _, k := range bench.RawSuite() {
		b.Run(k.Name, func(b *testing.B) {
			var churn float64
			for i := 0; i < b.N; i++ {
				row := exp.Convergence(m, []bench.Kernel{k}, passes.RawSequence())[0]
				churn = 0
				for _, f := range row.Fractions {
					churn += f
				}
			}
			b.ReportMetric(churn, "total-churn")
		})
	}
}

// BenchmarkFig9Convergence regenerates Figure 9's data on the VLIW.
func BenchmarkFig9Convergence(b *testing.B) {
	m := machine.Chorus(4)
	for _, k := range bench.VliwSuite() {
		b.Run(k.Name, func(b *testing.B) {
			var churn float64
			for i := 0; i < b.N; i++ {
				row := exp.Convergence(m, []bench.Kernel{k}, passes.VliwSequence())[0]
				churn = 0
				for _, f := range row.Fractions {
					churn += f
				}
			}
			b.ReportMetric(churn, "total-churn")
		})
	}
}

// BenchmarkFig10Scalability regenerates Figure 10: wall-clock scheduling
// time versus instruction count for the three VLIW schedulers (the ns/op of
// each sub-benchmark is the figure's y value).
func BenchmarkFig10Scalability(b *testing.B) {
	m := machine.Chorus(4)
	for _, n := range []int{100, 250, 500, 1000, 2000} {
		g := bench.RandomLayered(n, n/12+4, 4, exp.Seed)
		b.Run(fmt.Sprintf("pcc/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pcc.Schedule(g, m, pcc.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("uas/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := uas.Schedule(g, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("conv/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(g, m, passes.VliwSequence(), exp.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations --------------------------------------------------------

// ablate runs one pass-sequence variant over a suite and reports the mean
// schedule-length ratio to the reference sequence (1.0 = no change; below
// 1.0 = the variant produces shorter schedules).
func ablate(b *testing.B, m *machine.Model, suite []bench.Kernel, ref, variant []core.Pass) {
	b.Helper()
	var ratioSum float64
	count := 0
	for i := 0; i < b.N; i++ {
		ratioSum, count = 0, 0
		for _, k := range suite {
			g := k.Build(m.NumClusters)
			rs, _, err := core.Schedule(g, m, ref, exp.Seed)
			if err != nil {
				b.Fatal(err)
			}
			vs, _, err := core.Schedule(g, m, variant, exp.Seed)
			if err != nil {
				b.Fatal(err)
			}
			ratioSum += float64(vs.Length()) / float64(rs.Length())
			count++
		}
	}
	b.ReportMetric(ratioSum/float64(count), "len-ratio")
}

// BenchmarkAblationNoise toggles the NOISE pass on the VLIW sequence.
func BenchmarkAblationNoise(b *testing.B) {
	ref := passes.VliwSequence()
	var noNoise []core.Pass
	for _, p := range ref {
		if p.Name() != "NOISE" {
			noNoise = append(noNoise, p)
		}
	}
	b.Run("without-noise", func(b *testing.B) {
		ablate(b, machine.Chorus(4), bench.VliwSuite(), ref, noNoise)
	})
}

// BenchmarkAblationFULoad compares the machine-aware FULOAD against the
// paper's plain LOAD and against no balancing pass at all on the VLIW.
func BenchmarkAblationFULoad(b *testing.B) {
	ref := passes.VliwSequence()
	swap := func(name string, repl core.Pass) []core.Pass {
		var out []core.Pass
		for _, p := range ref {
			if p.Name() == "FULOAD" {
				if repl != nil {
					out = append(out, repl)
				}
				continue
			}
			out = append(out, p)
		}
		_ = name
		return out
	}
	b.Run("plain-load", func(b *testing.B) {
		ablate(b, machine.Chorus(4), bench.VliwSuite(), ref, swap("LOAD", passes.Load{}))
	})
	b.Run("no-balancing(published-Table1b)", func(b *testing.B) {
		ablate(b, machine.Chorus(4), bench.VliwSuite(), ref, passes.PublishedVliwSequence())
	})
}

// BenchmarkAblationLevelStride sweeps LEVEL's granularity on Raw (the paper
// applies it every four levels).
func BenchmarkAblationLevelStride(b *testing.B) {
	mkSeq := func(stride int) []core.Pass {
		var out []core.Pass
		for _, p := range passes.RawSequence() {
			if p.Name() == "LEVEL" {
				out = append(out, passes.Level{Stride: stride})
				continue
			}
			out = append(out, p)
		}
		return out
	}
	ref := passes.RawSequence()
	for _, stride := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("stride%d", stride), func(b *testing.B) {
			ablate(b, machine.Raw(16), bench.RawSuite(), ref, mkSeq(stride))
		})
	}
}

// BenchmarkAblationPathPropThreshold sweeps PATHPROP's confidence
// threshold on Raw.
func BenchmarkAblationPathPropThreshold(b *testing.B) {
	mkSeq := func(th float64) []core.Pass {
		var out []core.Pass
		for _, p := range passes.RawSequence() {
			if p.Name() == "PATHPROP" {
				out = append(out, passes.PathProp{Threshold: th})
				continue
			}
			out = append(out, p)
		}
		return out
	}
	ref := passes.RawSequence()
	for _, th := range []float64{1.2, 2, 4, 8} {
		b.Run(fmt.Sprintf("threshold%.1f", th), func(b *testing.B) {
			ablate(b, machine.Raw(16), bench.RawSuite(), ref, mkSeq(th))
		})
	}
}

// BenchmarkAblationPassOrder tests the framework's phase-ordering
// robustness claim: rotating the spatial heart of the Raw sequence should
// degrade results far less than classical phase-ordering failures, because
// preferences are revisable.
func BenchmarkAblationPassOrder(b *testing.B) {
	ref := passes.RawSequence()
	// Rotate the middle passes (keep INITTIME first and EMPHCP last).
	mid := ref[1 : len(ref)-1]
	for rot := 1; rot <= 3; rot++ {
		variant := []core.Pass{ref[0]}
		for i := range mid {
			variant = append(variant, mid[(i+rot)%len(mid)])
		}
		variant = append(variant, ref[len(ref)-1])
		b.Run(fmt.Sprintf("rotate%d", rot), func(b *testing.B) {
			ablate(b, machine.Raw(16), bench.RawSuite(), ref, variant)
		})
	}
}

// BenchmarkAblationRegPressure splices the REGPRES pass into the VLIW
// sequence and reports both schedule-length ratio and the spill count under
// a tight 12-register file, quantifying the ILP-versus-pressure tradeoff
// the paper's introduction describes.
func BenchmarkAblationRegPressure(b *testing.B) {
	const regs = 12
	m := machine.Chorus(4)
	ref := passes.VliwSequence()
	withRP := append([]core.Pass{}, ref[:len(ref)-1]...)
	withRP = append(withRP, passes.RegPres{}, ref[len(ref)-1])
	run := func(b *testing.B, seq []core.Pass) (lenSum, spills int) {
		for _, k := range bench.VliwSuite() {
			g := k.Build(4)
			s, _, err := core.Schedule(g, m, seq, exp.Seed)
			if err != nil {
				b.Fatal(err)
			}
			ra, err := regalloc.Allocate(s, regs)
			if err != nil {
				b.Fatal(err)
			}
			lenSum += s.Length()
			spills += ra.SpillCount()
		}
		return
	}
	b.Run("reference", func(b *testing.B) {
		var lenSum, spills int
		for i := 0; i < b.N; i++ {
			lenSum, spills = run(b, ref)
		}
		b.ReportMetric(float64(lenSum), "total-cycles")
		b.ReportMetric(float64(spills), "spills")
	})
	b.Run("with-regpres", func(b *testing.B) {
		var lenSum, spills int
		for i := 0; i < b.N; i++ {
			lenSum, spills = run(b, withRP)
		}
		b.ReportMetric(float64(lenSum), "total-cycles")
		b.ReportMetric(float64(spills), "spills")
	})
}

// BenchmarkListScheduler isolates the shared cycle-driven list scheduler on
// a large random graph: the substrate every scheduler pays for. The vliw4
// cases contend on send ports and transfer units, the raw16 cases on mesh
// links as well. The vliw4 cases keep their unprefixed names so benchgate
// can compare them against older commits.
func BenchmarkListScheduler(b *testing.B) {
	for _, m := range []*machine.Model{machine.Chorus(4), machine.Raw(16)} {
		prefix := ""
		if m.Name != "vliw4" {
			prefix = m.Name + "/"
		}
		for _, n := range []int{200, 1000} {
			g := bench.RandomLayered(n, n/12+4, m.NumClusters, exp.Seed)
			assign := make([]int, g.Len())
			for i, in := range g.Instrs {
				assign[i] = i % m.NumClusters
				if in.Preplaced() {
					assign[i] = in.Home
				}
			}
			b.Run(fmt.Sprintf("%sn%d", prefix, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := listsched.Run(g, m, listsched.Options{Assignment: assign}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPrefMapOps isolates the weight-matrix primitives the passes are
// built on.
func BenchmarkPrefMapOps(b *testing.B) {
	b.Run("normalize", func(b *testing.B) {
		p := core.NewPrefMap(500, 100, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every pass leaves the rows it touched dirty; a clean row
			// would time only Normalize's early return. Multiplying one
			// slot by 1 dirties a row without moving its weights.
			for j := 0; j < 500; j++ {
				p.MulTime(j, 0, 1)
			}
			p.NormalizeAll()
		}
	})
	b.Run("blend", func(b *testing.B) {
		// cholesky@raw16's row shape: PATHPROP blends 346×16-cell rows.
		p := core.NewPrefMap(64, 346, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 1; j < 64; j++ {
				p.Blend(j, j-1, 0.75)
			}
		}
	})
	b.Run("preferred-cluster", func(b *testing.B) {
		p := core.NewPrefMap(500, 100, 16)
		p.MulCluster(250, 7, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 500; j++ {
				p.PreferredCluster(j)
			}
		}
	})
}

// BenchmarkPrefMapPassLoop times one warm application of each machine's full
// convergent pass sequence on a mid-size graph: the zero-allocation hot path
// the scratch-arena rewrite targets. The benchmark-gate CI step (see
// cmd/benchgate) compares these numbers base-vs-head and fails the build on
// a time regression or any allocs/op above zero. The raw16-cholesky case has
// the suite's longest time horizon (346 slots against mxm's 18), so it is
// the one that shows what time-windowed row sweeps save.
func BenchmarkPrefMapPassLoop(b *testing.B) {
	cases := []struct {
		name   string
		m      *machine.Model
		kernel string
	}{
		{"raw4", machine.Raw(4), "mxm"},
		{"raw16", machine.Raw(16), "mxm"},
		{"vliw4", machine.Chorus(4), "mxm"},
		{"raw16-cholesky", machine.Raw(16), "cholesky"},
	}
	for _, c := range cases {
		m := c.m
		b.Run(c.name, func(b *testing.B) {
			seq := passes.ForMachine(m.Name)
			k, ok := bench.ByName(c.kernel)
			if !ok {
				b.Fatalf("%s kernel not found", c.kernel)
			}
			g := k.Build(m.NumClusters)
			s := core.NewState(g, m, exp.Seed)
			// Warm the arena and level bins to their high-water marks, as
			// TestRunPassesZeroAllocs does: one run leaves them still growing.
			for i := 0; i < 5; i++ {
				core.RunPasses(context.Background(), s, seq)
			}
			for i := 0; i < g.Len(); i++ {
				s.Distances(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunPasses(context.Background(), s, seq)
			}
		})
	}
}

// BenchmarkSimulator isolates schedule execution + verification against
// reference semantics.
func BenchmarkSimulator(b *testing.B) {
	k, _ := bench.ByName("mxm")
	g := k.Build(4)
	m := machine.Chorus(4)
	s, err := uas.Schedule(g, m)
	if err != nil {
		b.Fatal(err)
	}
	mem := k.InitMemory(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Verify(s, mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGate isolates the legality gate every served schedule passes
// (sim.Gate), with simulation on as the service runs it: one shell copy,
// one validation and one simulation against reference execution.
func BenchmarkGate(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	cases := []struct {
		name string
		g    *ir.Graph
		m    *machine.Model
		mem  sim.Memory
	}{
		{"cholesky/raw16", k.Build(16), machine.Raw(16), k.InitMemory(16)},
		{"random2000/vliw4", bench.RandomLayered(2000, 2000/12+4, 4, exp.Seed), machine.Chorus(4), nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, _, err := core.Schedule(c.g, c.m, passes.ForMachine(c.m.Name), exp.Seed)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Gate(s, c.g, c.m, true, c.mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIterative measures the iterative convergence mode
// (schedule feedback re-seeding the preference map) at 1, 2 and 4 rounds on
// the Raw suite, reporting the mean schedule-length ratio to one round.
func BenchmarkAblationIterative(b *testing.B) {
	m := machine.Raw(16)
	baseLens := map[string]int{}
	for _, k := range bench.RawSuite() {
		g := k.Build(16)
		res, err := core.IterativeSchedule(g, m, passes.RawSequence(), exp.Seed, 1)
		if err != nil {
			b.Fatal(err)
		}
		baseLens[k.Name] = res.Best.Length()
	}
	for _, rounds := range []int{2, 4} {
		b.Run(fmt.Sprintf("rounds%d", rounds), func(b *testing.B) {
			var ratioSum float64
			for i := 0; i < b.N; i++ {
				ratioSum = 0
				for _, k := range bench.RawSuite() {
					g := k.Build(16)
					res, err := core.IterativeSchedule(g, m, passes.RawSequence(), exp.Seed, rounds)
					if err != nil {
						b.Fatal(err)
					}
					ratioSum += float64(res.Best.Length()) / float64(baseLens[k.Name])
				}
			}
			b.ReportMetric(ratioSum/float64(len(bench.RawSuite())), "len-ratio")
		})
	}
}

// engineJobs builds one scheduling job per benchmark kernel on the given
// machine, the workload of the engine throughput benchmarks.
func engineJobs(m *machine.Model) []engine.Job {
	var jobs []engine.Job
	for _, k := range bench.All() {
		jobs = append(jobs, engine.Job{
			ID:      k.Name,
			Graph:   k.Build(m.NumClusters),
			Machine: m,
			Opts:    robust.Options{Seed: exp.Seed},
		})
	}
	return jobs
}

// BenchmarkEngineSerial is the reference point for the engine benchmarks:
// every kernel through the resilient driver, one at a time, no cache — the
// shape experiment code had before the batch engine existed.
func BenchmarkEngineSerial(b *testing.B) {
	jobs := engineJobs(machine.Raw(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, _, err := robust.Schedule(context.Background(), j.Graph, j.Machine, j.Opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineParallelCold batches all kernels through a fresh engine
// each iteration: pure worker-pool speedup, no cache reuse. On a single-core
// runner this matches EngineSerial; the gap appears with GOMAXPROCS > 1.
func BenchmarkEngineParallelCold(b *testing.B) {
	jobs := engineJobs(machine.Raw(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(0, 2*len(jobs))
		for _, r := range e.Batch(context.Background(), jobs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkEngineParallelWarm batches all kernels through a pre-warmed
// engine: every schedule rehydrates from the content-addressed cache.
func BenchmarkEngineParallelWarm(b *testing.B) {
	jobs := engineJobs(machine.Raw(16))
	e := engine.New(0, 2*len(jobs))
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range e.Batch(context.Background(), jobs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if !r.CacheHit {
				b.Fatalf("%s missed the warm cache", r.ID)
			}
		}
	}
}
