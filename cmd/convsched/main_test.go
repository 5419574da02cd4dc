package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
)

// opts builds the default flag set for tests.
func opts(machine, scheduler, show string, verify bool) options {
	return options{
		machine:   machine,
		scheduler: scheduler,
		seed:      2002,
		show:      show,
		verify:    verify,
		chaosSeed: 1,
	}
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<20)
	n, _ := r.Read(out)
	r.Close()
	return string(out[:n]), ferr
}

func writeKernel(t *testing.T, name string, clusters int) string {
	t.Helper()
	k, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("kernel %s", name)
	}
	path := filepath.Join(t.TempDir(), name+".ddg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := irtext.Print(f, k.Build(clusters)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllSchedulers(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	for _, sched := range selectorNames {
		out, err := capture(t, func() error {
			return run(opts("vliw4", sched, "stats", true), []string{path})
		})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !strings.Contains(out, "cycles") {
			t.Errorf("%s: no stats printed:\n%s", sched, out)
		}
	}
}

func TestRunShowModes(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	for show, want := range map[string]string{
		"schedule":   "schedule vvmul",
		"assignment": "cluster",
		"dot":        "digraph",
		"trace":      "NOISE",
		"report":     "served by rung convergent",
	} {
		out, err := capture(t, func() error {
			return run(opts("vliw4", "convergent", show, false), []string{path})
		})
		if err != nil {
			t.Fatalf("show=%s: %v", show, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("show=%s missing %q:\n%s", show, want, out)
		}
	}
}

// chaosOpts is opts() plus a chaos class, which batch mode must reject.
func chaosOpts(t *testing.T) options {
	t.Helper()
	o := opts("vliw4", "convergent", "stats", false)
	o.chaos = faultinject.Classes()[0]
	return o
}

// TestRunBatch drives the multi-input path: a file plus a directory expand
// into units scheduled over the engine, with the duplicate served from cache.
func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"vvmul", "fir"} {
		k, _ := bench.ByName(name)
		f, err := os.Create(filepath.Join(dir, name+".ddg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := irtext.Print(f, k.Build(4)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	path := writeKernel(t, "vvmul", 4)
	o := opts("vliw4", "convergent", "stats", true)
	o.cacheSize = 16
	// One worker schedules the units in order, so the duplicate vvmul
	// always finds the first one's schedule in the cache. With more
	// workers it may start while the first is still in flight and be
	// shared instead, depending on thread timing.
	o.jobs = 1
	out, err := capture(t, func() error {
		return run(o, []string{path, dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "batch: 3 units") {
		t.Errorf("no batch summary:\n%s", out)
	}
	// The standalone vvmul.ddg and the directory's are the same graph.
	if !strings.Contains(out, "[cached]") && !strings.Contains(out, "[shared]") {
		t.Errorf("duplicate unit not served from cache:\n%s", out)
	}
	if !strings.Contains(out, "1 hits") {
		t.Errorf("cache summary missing hit:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	cases := []struct {
		label string
		o     options
		args  []string
	}{
		{"bad machine", opts("gpu1", "convergent", "stats", false), []string{path}},
		{"bad scheduler", opts("vliw4", "magic", "stats", false), []string{path}},
		{"bad show", opts("vliw4", "convergent", "hologram", false), []string{path}},
		{"missing file", opts("vliw4", "convergent", "stats", false), []string{"/nonexistent.ddg"}},
		{"trace needs convergent", opts("vliw4", "uas", "trace", false), []string{path}},
		{"degenerate machine", opts("vliw0", "convergent", "stats", false), []string{path}},
		{"batch rejects -show", opts("vliw4", "convergent", "schedule", false), []string{path, path}},
		{"batch rejects -chaos", chaosOpts(t), []string{path, path}},
		{"empty directory", opts("vliw4", "convergent", "stats", false), []string{t.TempDir()}},
	}
	for _, c := range cases {
		if _, err := capture(t, func() error {
			return run(c.o, c.args)
		}); err == nil {
			t.Errorf("%s: no error", c.label)
		}
	}
}

func TestRunRejectsRawGraphOnWrongMachine(t *testing.T) {
	// A graph built for 4 banks cannot schedule on raw2 (homes out of
	// range); run must surface the error rather than panic.
	path := writeKernel(t, "vvmul", 4)
	if _, err := capture(t, func() error {
		return run(opts("raw2", "convergent", "stats", true), []string{path})
	}); err == nil {
		t.Error("expected error for 4-bank kernel on raw2")
	}
}

// TestChaosFallsThroughToBaseline: the headline CLI scenario — a poisoned
// pass panics inside both convergent rungs and the run still succeeds, with
// the report naming the baseline rung that served.
func TestChaosFallsThroughToBaseline(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	o := opts("vliw4", "convergent", "report", true)
	o.chaos = faultinject.ChaosPassPanic
	out, err := capture(t, func() error {
		return run(o, []string{path})
	})
	if err != nil {
		t.Fatalf("chaos run failed outright: %v", err)
	}
	if !strings.Contains(out, "served by rung uas") {
		t.Errorf("report does not show the uas baseline serving:\n%s", out)
	}
	if !strings.Contains(out, "!pass-panic") || !strings.Contains(out, "panic") {
		t.Errorf("report does not name the injected fault:\n%s", out)
	}
}

// TestChaosRequiresConvergent: the chaos ladder poisons the published
// sequence, so -chaos rejects every other scheduler, convergent-tuned too.
func TestChaosRequiresConvergent(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	for _, sched := range []string{"uas", "convergent-tuned"} {
		o := opts("vliw4", sched, "stats", false)
		o.chaos = faultinject.ChaosPassPanic
		if _, err := capture(t, func() error {
			return run(o, []string{path})
		}); err == nil {
			t.Errorf("chaos with -scheduler %s accepted", sched)
		}
	}
}

// TestShowTraceTuned: the per-pass trace exists for either convergent pass
// sequence.
func TestShowTraceTuned(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	out, err := capture(t, func() error {
		return run(opts("vliw4", "convergent-tuned", "trace", false), []string{path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "changed") {
		t.Errorf("no per-pass trace for convergent-tuned:\n%s", out)
	}
}

// TestDriverOptionsMatchSelect: the local path resolves every scheduler
// name, with and without fallback, to exactly the rungs and cache identity
// robust.Select gives, and rejects the names Select rejects.
func TestDriverOptionsMatchSelect(t *testing.T) {
	m, err := machine.Named("vliw4")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(selectorNames, "oracle") {
		for _, fallback := range []bool{false, true} {
			o := opts("vliw4", name, "stats", true)
			o.fallback = fallback
			d, id, err := driverOptions(o, m)
			ladder, wantID, serr := robust.Select(m, name, fallback, o.seed)
			if (err == nil) != (serr == nil) {
				t.Errorf("%s fallback=%v: local error %v, Select error %v", name, fallback, err, serr)
				continue
			}
			if err != nil {
				continue
			}
			if got, want := rungNames(d.Ladder), rungNames(ladder); got != want {
				t.Errorf("%s fallback=%v: local rungs %s, Select rungs %s", name, fallback, got, want)
			}
			if id != wantID {
				t.Errorf("%s fallback=%v: local ladder ID %s, Select ID %s", name, fallback, id, wantID)
			}
		}
	}
}

// selectorNames lists every scheduler name robust.Select accepts.
var selectorNames = []string{"convergent", "convergent-tuned", "rawcc", "uas", "pcc", "list"}

// rungNames joins a ladder's rung names, the part of a ladder tests can
// compare.
func rungNames(ladder []robust.Rung) string {
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.Name
	}
	return strings.Join(names, ">")
}

func TestUnknownChaosClass(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	o := opts("vliw4", "convergent", "stats", false)
	o.chaos = "gremlins"
	_, err := capture(t, func() error {
		return run(o, []string{path})
	})
	if err == nil || !strings.Contains(err.Error(), "chaos-list") {
		t.Errorf("unknown chaos class error %v should point at -chaos-list", err)
	}
}

// TestTimeoutWithFallback: a stalled convergent pipeline loses to the budget
// and the ladder serves a baseline within wall-clock bounds.
func TestTimeoutWithFallback(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	o := opts("vliw4", "convergent", "report", true)
	o.chaos = faultinject.ChaosPassStall
	o.timeout = 50 * time.Millisecond
	t0 := time.Now()
	out, err := capture(t, func() error {
		return run(o, []string{path})
	})
	if err != nil {
		t.Fatalf("stalled run failed outright: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Errorf("run took %v with a 50ms budget", elapsed)
	}
	if !strings.Contains(out, "deadline") || !strings.Contains(out, "served by rung uas") {
		t.Errorf("report missing deadline degradation:\n%s", out)
	}
}

// TestFallbackLadderHealthy: -fallback on a healthy input must not change
// the result — the primary rung serves on the first attempt.
func TestFallbackLadderHealthy(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	o := opts("vliw4", "convergent", "report", true)
	o.fallback = true
	out, err := capture(t, func() error {
		return run(o, []string{path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served by rung convergent") {
		t.Errorf("healthy fallback run not served by the primary rung:\n%s", out)
	}
	if strings.Count(out, "rung ") != 2 { // one attempt line + served line
		t.Errorf("healthy run should have exactly one attempt:\n%s", out)
	}
}

// TestBatchStoreCrossRunReuse runs the same batch twice against one
// -store-dir: the second invocation must recover the first run's schedules
// and serve them as warm hits.
func TestBatchStoreCrossRunReuse(t *testing.T) {
	inputs := t.TempDir()
	for _, name := range []string{"vvmul", "fir"} {
		k, _ := bench.ByName(name)
		f, err := os.Create(filepath.Join(inputs, name+".ddg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := irtext.Print(f, k.Build(4)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	o := opts("vliw4", "convergent", "stats", true)
	o.cacheSize = 16
	o.storeDir = filepath.Join(t.TempDir(), "store")

	out, err := capture(t, func() error { return run(o, []string{inputs}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "store: 0 recovered, 2 flushed") {
		t.Errorf("first run store summary wrong:\n%s", out)
	}

	out, err = capture(t, func() error { return run(o, []string{inputs}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "store: 2 recovered") {
		t.Errorf("second run recovered nothing:\n%s", out)
	}
	if !strings.Contains(out, "2 hits") {
		t.Errorf("second run not served warm:\n%s", out)
	}
}

func TestStoreFlagErrors(t *testing.T) {
	path := writeKernel(t, "vvmul", 4)
	dir := filepath.Dir(path)
	base := opts("vliw4", "convergent", "stats", true)
	base.cacheSize = 16
	cases := []struct {
		name string
		mut  func(*options)
		args []string
	}{
		{"single input", func(o *options) { o.storeDir = t.TempDir() }, []string{path}},
		{"with serve-addr", func(o *options) { o.storeDir = t.TempDir(); o.serveAddr = "127.0.0.1:1" }, []string{path, dir}},
		{"cache disabled", func(o *options) { o.storeDir = t.TempDir(); o.cacheSize = 0 }, []string{path, dir}},
		{"missing parent", func(o *options) { o.storeDir = filepath.Join(t.TempDir(), "no", "such", "store") }, []string{path, dir}},
	}
	for _, c := range cases {
		o := base
		c.mut(&o)
		if _, err := capture(t, func() error { return run(o, c.args) }); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
