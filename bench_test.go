// Package repro's root benchmarks time the scheduler: the Table 1 pass
// sequences, the Fig. 10 compile-time scaling and its scale unit, and the
// hot paths (list scheduler, preference map, simulator, gate, parse and
// seal, canonical identity, graph text, engine, a warm service hit).
//
// The paper's tables and figures, and the design-choice ablations, are
// regenerated by cmd/experiments (go run ./cmd/experiments -exp table2,
// -exp ablation), whose rows come from internal/exp; that package is the
// one definition of every quality figure, and its goldens pin them. Fig. 10
// is the exception by nature: its y value is the ns/op of
// BenchmarkFig10Scalability.
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/server"
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

// BenchmarkConvergentScale is the perfbench scale workload's unit without
// the service: the convergent scheduler with the VLIW sequence on the
// Fig. 10 random DAGs of 1000 and 2000 instructions on vliw4. Unlike
// BenchmarkFig10Scalability, whose pcc/2000 case takes seconds per op, it
// is cheap enough for the benchmark gate.
func BenchmarkConvergentScale(b *testing.B) {
	m := machine.Chorus(4)
	for _, n := range []int{1000, 2000} {
		g := bench.RandomLayered(n, n/12+4, 4, exp.Seed)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(g, m, passes.VliwSequence(), exp.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvergentKernel times one pooled core.Schedule of the cholesky
// kernel per op, state initialisation included: the unit of perfbench's
// cold workload that sets its tail. Unlike BenchmarkPrefMapPassLoop, which
// reruns the passes on one state, every op re-shapes a recycled map with
// PrefMap.Reset before INITTIME narrows it.
func BenchmarkConvergentKernel(b *testing.B) {
	k, ok := bench.ByName("cholesky")
	if !ok {
		b.Fatal("cholesky kernel not found")
	}
	for _, m := range []*machine.Model{machine.Raw(16), machine.Chorus(4)} {
		g := k.Build(m.NumClusters)
		seq := passes.ForMachine(m.Name)
		b.Run(m.Name+"-cholesky", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(g, m, seq, exp.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
// built on. Every row kernel (internal/core/rowkern.go) has a case, at the
// row widths of raw16 (C = 16) and of raw4 and vliw4 (C = 4): the kernels
// choose their AVX2 bodies by C, so each width is timed on its own.
func BenchmarkPrefMapOps(b *testing.B) {
	// normalize times NormalizeAll over n dirty rows of T slots and C
	// clusters: the total sweep (column sums) and the fused rescale.
	normalize := func(n, T, C int) func(*testing.B) {
		return func(b *testing.B) {
			p := core.NewPrefMap(n, T, C)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every pass leaves the rows it touched dirty; a clean row
				// would time only Normalize's early return. Multiplying one
				// slot by 1 dirties a row without moving its weights.
				for j := 0; j < n; j++ {
					p.MulTime(j, 0, 1)
				}
				p.NormalizeAll()
			}
		}
	}
	b.Run("normalize", normalize(500, 100, 16))
	// cholesky@raw16's row shape.
	b.Run("normalize-346x16", normalize(64, 346, 16))
	b.Run("normalize-c4", normalize(500, 100, 4))
	blend := func(C int) func(*testing.B) {
		return func(b *testing.B) {
			p := core.NewPrefMap(64, 346, C)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 1; j < 64; j++ {
					p.Blend(j, j-1, 0.75)
				}
			}
		}
	}
	// cholesky@raw16's row shape: PATHPROP blends 346×16-cell rows.
	b.Run("blend", blend(16))
	b.Run("blend-c4", blend(4))
	// perCluster times one per-cluster sweep over every row of a 64×346×C
	// map. Factors and divisors of 1 keep the weights, and so the timing,
	// from drifting toward subnormals across iterations.
	perCluster := func(op func(p *core.PrefMap, i int, f []float64)) func(*testing.B) {
		return func(b *testing.B) {
			for _, C := range []int{4, 16} {
				b.Run(fmt.Sprintf("c%d", C), func(b *testing.B) {
					p := core.NewPrefMap(64, 346, C)
					f := make([]float64, C)
					for c := range f {
						f[c] = 1
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < 64; j++ {
							op(p, j, f)
						}
					}
				})
			}
		}
	}
	b.Run("mul-per-cluster", perCluster((*core.PrefMap).MulPerCluster))
	b.Run("div-per-cluster", perCluster((*core.PrefMap).DivPerCluster))
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

// BenchmarkParseSeal isolates what every service request pays before any
// lookup: parsing a .ddg body and sealing the graph's adjacency.
func BenchmarkParseSeal(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	cases := []struct {
		name string
		body string
	}{
		{"cholesky/raw16", irtext.String(k.Build(16))},
		{"random2000/vliw4", irtext.String(bench.RandomLayered(2000, 2000/12+4, 4, exp.Seed))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := irtext.ParseString(c.body)
				if err != nil {
					b.Fatal(err)
				}
				g.Seal()
			}
		})
	}
}

// BenchmarkCanonical isolates the canonical identity every request pays for
// at each tier: refinement, canonical order and hash, on a sealed graph.
// The identity is cached per graph, so each timed call gets a fresh sealed
// clone, made with the timer stopped.
func BenchmarkCanonical(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	cases := []struct {
		name string
		g    *ir.Graph
	}{
		{"cholesky/raw16", k.Build(16)},
		{"random2000/vliw4", bench.RandomLayered(2000, 2000/12+4, 4, exp.Seed)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			fresh := make([]*ir.Graph, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(fresh) == 0 {
					b.StopTimer()
					for j := range fresh {
						fresh[j] = c.g.Clone()
						fresh[j].Seal()
					}
					b.StartTimer()
				}
				fresh[i%len(fresh)].Canonical()
			}
		})
	}
}

// BenchmarkGraphText isolates what every schedule-cache miss pays to keep
// its graph as text: rendering the sealed graph in .ddg form.
func BenchmarkGraphText(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	cases := []struct {
		name string
		g    *ir.Graph
	}{
		{"cholesky/raw16", k.Build(16)},
		{"random2000/vliw4", bench.RandomLayered(2000, 2000/12+4, 4, exp.Seed)},
	}
	for _, c := range cases {
		c.g.Seal()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphText = irtext.String(c.g)
			}
		})
	}
}

// graphText keeps BenchmarkGraphText's result live.
var graphText string

// BenchmarkWarmHit serves one pre-warmed cholesky/raw16 /schedule request
// through server.Handler, as perfbench's warm shards see it: parse, seal,
// canonical hash, cache lookup, the legality gate with simulation, and
// the JSON encoding of the response.
func BenchmarkWarmHit(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	body := irtext.String(k.Build(16))
	srv := server.New(server.Config{Seed: exp.Seed, Logf: func(string, ...any) {}})
	h := srv.Handler()
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/schedule?machine=raw16&seed=1&verify=true&fallback=true", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %.300s", rec.Code, rec.Body)
		}
	}
	serve()
	misses := srv.StatsSnapshot().Engine.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if srv.StatsSnapshot().Engine.Misses != misses {
		b.Fatal("a timed request missed the warm cache")
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
