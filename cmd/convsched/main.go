// Command convsched schedules dependence graphs (.ddg) onto a spatial
// machine with a chosen scheduler and reports the schedules.
//
// Usage:
//
//	convsched -machine raw16 -scheduler convergent [-seed 2002] [-show schedule] graph.ddg
//	convsched -machine raw16 [-j 8] a.ddg b.ddg dir-of-ddgs/
//
// Schedulers: convergent (the paper's, with the published pass sequence),
// convergent-tuned (the same scheduler with the oracle-tuned sequence,
// passes.TunedForMachine), rawcc, uas, pcc, list (critical-path list
// scheduling on cluster 0 homes only — a sanity baseline). schedd accepts
// the same names; robust.Select maps them to ladders.
// Machines: rawN (N tiles) or vliwN (N clusters).
// Show: stats (default), schedule, assignment, dot, trace, report.
//
// Every scheduling run goes through the resilient driver (internal/robust):
// a panicking or stalling scheduler becomes a clean error instead of a
// crash, and every accepted schedule is re-validated against the pristine
// graph and machine. With -fallback the driver walks the degradation ladder
// (convergent → truncated convergent → rawcc/uas → list) until a rung
// serves; -timeout bounds each attempt; -chaos injects a named, seeded
// fault class for resilience testing (-chaos-list enumerates them).
// -trace out.json writes the request's observability trace (per-pass
// preference-map deltas, ladder attempts) as JSON; tracing never changes
// the schedule produced.
//
// With several inputs — multiple .ddg files and/or directories, which expand
// to their *.ddg entries — the units are batch-scheduled over a worker pool
// (-j) with a content-addressed schedule cache (-cache-size), so duplicate
// and isomorphic units are scheduled once. Batch mode prints one stats line
// per input plus a cache summary; -show other than stats and -chaos are
// single-input features.
//
// With -store-dir the batch cache persists across invocations: recovered
// schedules are replayed through the legality gate at startup (corrupt or
// stale records are dropped, never served) and this run's schedules are
// appended on the way out, so re-running a large batch is mostly warm hits.
//
// With -serve-addr host:port the same inputs are scheduled by a running
// schedd service (see cmd/schedd) instead of in-process: each unit is POSTed
// to /schedule and the result printed in the batch format, with 429 sheds
// retried per the server's Retry-After hint.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/schedule"
)

// options collects the command's flags.
type options struct {
	machine   string
	scheduler string
	seed      int64
	show      string
	verify    bool
	timeout   time.Duration
	fallback  bool
	chaos     string
	chaosSeed int64
	jobs      int
	cacheSize int
	serveAddr string
	tenant    string
	storeDir  string
	traceOut  string
}

func main() {
	var o options
	flag.StringVar(&o.machine, "machine", "raw16", "target machine (rawN or vliwN)")
	flag.StringVar(&o.scheduler, "scheduler", "convergent", "convergent|convergent-tuned|rawcc|uas|pcc|list")
	flag.Int64Var(&o.seed, "seed", 2002, "noise seed for the convergent scheduler")
	flag.StringVar(&o.show, "show", "stats", "stats|schedule|assignment|dot|trace|report")
	flag.BoolVar(&o.verify, "verify", true, "simulate the schedule and compare against reference execution")
	flag.DurationVar(&o.timeout, "timeout", 0, "time budget per scheduling attempt (0 = unbounded)")
	flag.BoolVar(&o.fallback, "fallback", false, "degrade through the fallback ladder instead of failing")
	flag.StringVar(&o.chaos, "chaos", "", "inject this fault class into the pipeline (implies -fallback)")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the injected fault")
	flag.IntVar(&o.jobs, "j", 0, "worker-pool width for batch scheduling (0 = GOMAXPROCS)")
	flag.IntVar(&o.cacheSize, "cache-size", 256, "schedule-cache entries for batch scheduling (0 disables)")
	flag.StringVar(&o.serveAddr, "serve-addr", "", "schedule via a running schedd at this address instead of locally")
	flag.StringVar(&o.tenant, "tenant", "", "tenant identity sent as X-Schedd-Tenant in remote mode")
	flag.StringVar(&o.storeDir, "store-dir", "", "persist the batch schedule cache in this directory and warm-start from it")
	flag.StringVar(&o.traceOut, "trace", "", "write the scheduling trace (per-pass weight deltas, ladder attempts) as JSON to this file")
	chaosList := flag.Bool("chaos-list", false, "list chaos classes and exit")
	flag.Parse()

	if *chaosList {
		fmt.Println(strings.Join(faultinject.Classes(), "\n"))
		return
	}
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "convsched:", err)
		os.Exit(1)
	}
}

// expandInputs resolves the positional arguments into .ddg file paths:
// files stand for themselves, directories expand to their *.ddg entries in
// name order. No arguments means stdin (single-input mode).
func expandInputs(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		found := 0
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".ddg") {
				paths = append(paths, filepath.Join(a, e.Name()))
				found++
			}
		}
		if found == 0 {
			return nil, fmt.Errorf("directory %s contains no .ddg files", a)
		}
	}
	return paths, nil
}

func run(o options, args []string) error {
	m, err := machine.Named(o.machine)
	if err != nil {
		return err
	}
	paths, err := expandInputs(args)
	if err != nil {
		return err
	}
	if o.storeDir != "" {
		// The store memoizes batch results across invocations; the other
		// modes have no cache to persist.
		if o.serveAddr != "" {
			return fmt.Errorf("-store-dir is local; with -serve-addr, persistence belongs to the schedd (its -store-dir)")
		}
		if len(paths) <= 1 {
			return fmt.Errorf("-store-dir is a batch-mode feature; give several inputs")
		}
		if o.cacheSize <= 0 {
			return fmt.Errorf("-store-dir requires a positive -cache-size, got %d", o.cacheSize)
		}
		parent := filepath.Dir(filepath.Clean(o.storeDir))
		if st, err := os.Stat(parent); err != nil || !st.IsDir() {
			return fmt.Errorf("-store-dir parent %s does not exist", parent)
		}
	}
	if o.traceOut != "" && (o.serveAddr != "" || len(paths) > 1) {
		return fmt.Errorf("-trace is a single-input local feature (schedd serves traces via ?trace=1)")
	}
	if o.serveAddr != "" {
		return runRemote(o, paths)
	}
	if len(paths) > 1 {
		return runBatch(o, m, paths)
	}
	var g *ir.Graph
	if len(paths) == 0 {
		g, err = irtext.Parse(os.Stdin)
	} else {
		g, err = irtext.ParseFile(paths[0])
	}
	if err != nil {
		return err
	}

	if o.show == "trace" {
		// The per-pass trace exists only inside the convergent driver.
		if o.scheduler != "convergent" && o.scheduler != "convergent-tuned" {
			return fmt.Errorf("-show trace requires -scheduler convergent or convergent-tuned")
		}
		if o.chaos != "" {
			return fmt.Errorf("-show trace cannot be combined with -chaos")
		}
	}
	opts, _, err := driverOptions(o, m)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var tr *obs.Trace
	if o.traceOut != "" || o.show == "trace" {
		tr = obs.NewTrace(g.Name, m.Name)
		ctx = obs.WithTrace(ctx, tr)
	}
	s, rep, err := robust.Schedule(ctx, g, m, opts)
	// The trace is written even when every rung failed: the recorded pass
	// deltas and attempts are exactly what explains the failure.
	if o.traceOut != "" {
		if werr := writeTraceFile(o.traceOut, tr); werr != nil {
			fmt.Fprintf(os.Stderr, "convsched: %v\n", werr)
		}
	}
	if err != nil {
		return fmt.Errorf("%w\n%s", err, rep)
	}
	// Degradation is worth knowing about even when the caller only asked
	// for the schedule; it goes to stderr so stdout stays parseable.
	if o.show != "report" && len(rep.Attempts) > 1 {
		fmt.Fprint(os.Stderr, rep)
	}
	return show(o, g, m, s, rep, tr)
}

// driverOptions resolves the flags into the resilient driver's options and
// the ladder's cache identity, for single-input and batch mode alike: the
// chaos-poisoned default ladder under -chaos, robust.Select's otherwise.
func driverOptions(o options, m *machine.Model) (robust.Options, string, error) {
	var ladder []robust.Rung
	var id string
	var err error
	if o.chaos != "" {
		// The chaos ladder pins the published sequence, so it poisons
		// convergent and nothing else — not even convergent-tuned.
		if o.scheduler != "convergent" {
			return robust.Options{}, "", fmt.Errorf("-chaos poisons the published convergent ladder; use -scheduler convergent, not %q", o.scheduler)
		}
		chaos := faultinject.Chaos{Class: o.chaos, Seed: o.chaosSeed}
		if ladder, id, err = chaos.Ladder(m, o.seed); err != nil {
			return robust.Options{}, "", fmt.Errorf("%w (see -chaos-list)", err)
		}
	} else if ladder, id, err = robust.Select(m, o.scheduler, o.fallback, o.seed); err != nil {
		return robust.Options{}, "", err
	}
	return robust.Options{Timeout: o.timeout, Verify: o.verify, Ladder: ladder, Seed: o.seed}, id, nil
}

// runBatch schedules every input unit over the engine's worker pool with the
// content-addressed schedule cache, printing one stats line per unit and a
// cache summary. Failures are per-unit: a bad graph reports its error and
// the rest of the batch completes.
func runBatch(o options, m *machine.Model, paths []string) error {
	if o.chaos != "" {
		return fmt.Errorf("-chaos is a single-input feature")
	}
	if o.show != "stats" {
		return fmt.Errorf("-show %s is a single-input feature; batch mode prints stats", o.show)
	}

	// The ladder is shared by every unit in the batch.
	opts, ladderID, err := driverOptions(o, m)
	if err != nil {
		return err
	}

	jobs := make([]engine.Job, len(paths))
	for i, p := range paths {
		g, err := irtext.ParseFile(p)
		if err != nil {
			return err
		}
		jobs[i] = engine.Job{ID: p, Graph: g, Machine: m, Opts: opts, LadderID: ladderID}
	}

	e := engine.New(o.jobs, o.cacheSize)
	if o.storeDir != "" {
		// Cross-run memoization: recover last run's schedules through the
		// legality gate before scheduling, persist this run's on the way out.
		if err := e.AttachStore(engine.PersistConfig{Dir: o.storeDir}); err != nil {
			return fmt.Errorf("store %s: %w", o.storeDir, err)
		}
		rs, err := e.RecoverStore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "convsched: store recovery: %v (continuing with partial warm cache)\n", err)
		}
		fmt.Fprintf(os.Stderr, "convsched: store %s: replayed %d, dropped %d corrupt, %d illegal, %d skewed (%d torn tails)\n",
			o.storeDir, rs.Replayed, rs.DroppedCorrupt, rs.DroppedIllegal, rs.DroppedSkewed, rs.TruncatedTails)
		defer func() {
			if err := e.CloseStore(); err != nil {
				fmt.Fprintf(os.Stderr, "convsched: store close: %v\n", err)
			}
		}()
	}
	failed := 0
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "convsched: %s: %v\n", r.ID, r.Err)
			continue
		}
		tag := ""
		switch {
		case r.CacheHit:
			tag = "  [cached]"
		case r.Shared:
			tag = "  [shared]"
		}
		fmt.Printf("%-32s %6d cycles %5d comms  served by %-12s %8s%s\n",
			r.ID, r.Schedule.Length(), r.Schedule.CommCount(), r.Served,
			r.Elapsed.Round(time.Millisecond), tag)
	}
	if o.storeDir != "" {
		// Flush before the summary so the store line reports what actually
		// reached the WAL; CloseStore (deferred) syncs the rest.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := e.FlushStore(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "convsched: store flush: %v\n", err)
		}
		cancel()
	}
	st := e.Stats()
	fmt.Printf("batch: %d units on %s, %d workers; cache: %d hits, %d misses, %d shared, %d evictions\n",
		len(jobs), m.Name, e.Workers(len(jobs)), st.Hits, st.Misses, st.Shared, st.Evictions)
	if o.storeDir != "" {
		p := st.Persist
		fmt.Printf("store: %d recovered, %d flushed, %d dropped (queue full), %d live entries\n",
			p.Recovery.Replayed, p.Flushed, p.Backpressure, st.Size)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d units failed", failed, len(jobs))
	}
	return nil
}

// writeTraceFile serializes the observability trace as indented JSON.
func writeTraceFile(path string, tr *obs.Trace) error {
	raw, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}

func show(o options, g *ir.Graph, m *machine.Model, s *schedule.Schedule, rep *robust.Report, tr *obs.Trace) error {
	switch o.show {
	case "stats":
		st := g.ComputeStats()
		fmt.Printf("graph %s: %s\n", g.Name, st)
		live := s.MaxLivePerCluster()
		maxLive := 0
		for _, l := range live {
			if l > maxLive {
				maxLive = l
			}
		}
		fmt.Printf("machine %s, scheduler %s: %d cycles, %d communications, max live values %d\n",
			m.Name, rep.Served, s.Length(), s.CommCount(), maxLive)
	case "schedule":
		fmt.Print(s.String())
	case "assignment":
		for i, p := range s.Placements {
			fmt.Printf("%4d %-8v -> cluster %d, cycle %d\n", i, g.Instrs[i].Op, p.Cluster, p.Start)
		}
	case "dot":
		fmt.Print(g.DOT())
	case "report":
		fmt.Print(rep)
	case "trace":
		// A degraded request also traced its failed rungs' passes; the
		// churn that matters is the serving rung's.
		for _, d := range tr.Snapshot().Passes {
			if d.Rung == rep.Served {
				fmt.Printf("%-10s changed %5.1f%% of preferred clusters\n", d.Pass, 100*d.Fraction)
			}
		}
	default:
		return fmt.Errorf("unknown -show %q", o.show)
	}
	return nil
}
