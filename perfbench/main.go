// Command perfbench is the repository's end-to-end service benchmark. It
// drives the real schedd handler (internal/server) and the schedgw gateway
// (internal/cluster) in process — a closed loop of two client goroutines
// calling the handlers with httptest requests, no sockets — and prints one
// JSON result line. A traced run (--trace 1) also replays each distinct input
// through the public functions of every layer and reports per-layer times.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run builds the service and sends the
// warm-up pass; setup_s is the median.
const setupReps = 5

// rssEvery is how often the timed phase samples the resident set. The
// median of the samples is reported: the kernel's peak count (VmHWM) moved
// by a factor of two between runs on warm, while sampled RSS stayed within
// a few percent.
const rssEvery = 100 * time.Millisecond

const traffic = "closed loop, 2 client goroutines, handlers called in process"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the result file a run writes: the result with what it measured
// and what it was measured on.
type record struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Layers   string `json:"layers"`
	Traffic  string `json:"traffic"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Env      env    `json:"env"`
	Result   result `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold, warm or scale")
	seed := fs.Int64("seed", 1, "seed every input and request is derived from")
	seconds := fs.Int("seconds", 35, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	out := fs.String("out", "", "directory for the result file and, when traced, the spans (empty: none)")
	summary := fs.Bool("summary", false, "print median and quartiles of every metric in the result files named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summary {
		if err := summarize(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec := record{Workload: w.name, Why: w.why, Layers: w.layers, Traffic: traffic,
		Seed: *seed, Seconds: *seconds, Trace: *trace, Env: newEnv()}
	spans, err := measure(w, time.Duration(*seconds)*time.Second, *trace == 1, &rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := save(*out, &rec, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	envLine, _ := json.Marshal(rec.Env)
	fmt.Fprintf(stderr, "perfbench: %s seed=%d env %s\n", w.name, *seed, envLine)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure sets the service up setupReps times, runs the timed phase on the
// last set-up, and fills rec.Result. A traced run records spans through the
// timed phase, then replays the inputs layer by layer; it returns the spans.
func measure(w *workload, dur time.Duration, traced bool, rec *record) (map[string][]span, error) {
	tr := &memTransport{}
	var svc *service
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if svc != nil {
			svc.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if svc, err = newService(w.viaGateway, tr); err != nil {
			return nil, err
		}
		warm := drive(svc, func(j int) (*input, string) { return w.inputs[j], w.warmup(j) }, 0, len(w.inputs), time.Time{}, nil)
		setups = append(setups, time.Since(t0).Seconds())
		for _, o := range warm.outcomes {
			if !o.ok {
				svc.close()
				return nil, fmt.Errorf("set-up request: %v", o.err)
			}
		}
	}
	defer svc.close()
	// Start the timed phase from the live heap: collect and return freed
	// memory to the OS, so what set-up left behind does not linger in the
	// resident set the timed phase reports.
	debug.FreeOSMemory()

	if !traced {
		c0 := svc.counters()
		stop := make(chan struct{})
		rss := sampleRSS(rssEvery, stop)
		p := drive(svc, w.timed, 0, math.MaxInt, time.Now().Add(dur), nil)
		close(stop)
		rec.Env.StealTicks = p.steal
		rec.Result = endToEnd(w, p, svc.counters().minus(c0), median(setups), median(<-rss))
		return nil, nil
	}

	svcRec := newRecorder()
	tr.rec.Store(svcRec)
	c0 := svc.counters()
	p := drive(svc, w.timed, 0, math.MaxInt, time.Now().Add(dur), svcRec)
	delta := svc.counters().minus(c0)
	tr.rec.Store(nil)
	rec.Env.StealTicks = p.steal

	replayRec := newRecorder()
	replayed, err := replay(w, replayRec)
	if err != nil {
		return nil, err
	}
	spans := map[string][]span{"service": svcRec.snapshot(), "replay": replayRec.snapshot()}
	rec.Result = perLayer(p, delta, spans, replayed)
	rec.Result.Metrics["trace.overhead_pct"] = metric{tracingOverhead(p, len(spans["service"])), "%"}
	return spans, nil
}

// tracingOverhead is the share of the traced phase's request latency spent
// recording service spans: the cost of one span, timed on a scratch
// recorder, times the spans recorded, over the summed latency. Comparing a
// traced with an untraced phase would mostly measure drift in host speed,
// which is far larger than the cost of a span or two per request.
func tracingOverhead(p phase, spans int) float64 {
	const probes = 100000
	r := newRecorder()
	ctx, end := r.root(context.Background(), "probe", 0)
	t0 := time.Now()
	for k := 0; k < probes; k++ {
		_, done := r.child(ctx, "probe.span")
		done()
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / probes
	end()
	var lat time.Duration
	for _, o := range p.outcomes {
		lat += o.lat
	}
	return 100 * perSpan * float64(spans) / float64(max(lat.Nanoseconds(), 1))
}

// tallied counts a phase's outcomes.
type tallied struct{ ok, wrong, failed int }

func tally(p phase) tallied {
	var t tallied
	for _, o := range p.outcomes {
		switch {
		case o.ok:
			t.ok++
		case o.wrong:
			t.wrong++
			t.failed++
		default:
			t.failed++
		}
	}
	return t
}

func rps(p phase) float64 { return float64(tally(p).ok) / p.elapsed.Seconds() }

// endToEnd computes the untraced run's metrics.
func endToEnd(w *workload, p phase, delta counters, setup, rss float64) result {
	t := tally(p)
	lats := make([]time.Duration, 0, len(p.outcomes))
	for _, o := range p.outcomes {
		lats = append(lats, o.lat)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	// cycles_total covers the first pass through the distinct inputs:
	// timed requests 0..n-1 are one seeded permutation of them.
	cycles, firstPassOK := 0, len(p.outcomes) >= len(w.inputs)
	for _, o := range p.outcomes {
		if o.index < len(w.inputs) {
			cycles += o.cycles
			firstPassOK = firstPassOK && o.ok
		}
	}
	return result{
		Correct:   t.wrong == 0 && firstPassOK && delta.doubleDeliveries == 0,
		Attempted: len(p.outcomes),
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":        {setup, "s"},
			"throughput_rps": {rps(p), "req/s"},
			"p50_ms":         {ms(percentile(lats, 0.50)), "ms"},
			"p99_ms":         {ms(percentile(lats, 0.99)), "ms"},
			"ok_frac":        {float64(t.ok) / float64(len(p.outcomes)), "ratio"},
			"cpu_ms_per_req": {ms(p.cpu) / float64(max(t.ok, 1)), "ms"},
			"rss_median_mb":  {rss, "MB"},
			"cycles_total":   {float64(cycles), "cycles"},
		},
	}
}

// passNames are the convergent passes reported per layer, whether or not a
// workload's machines run them.
var passNames = []string{"INITTIME", "NOISE", "FIRST", "PLACE", "PLACEPROP", "LOAD", "FULOAD",
	"PATH", "PATHPROP", "LEVEL", "COMM", "COMM2", "EMPHCP"}

// replayModules are the layers the replay times; self.<module>_ms is each
// one's self time per replayed request.
var replayModules = []string{"irtext", "ir", "engine", "robust", "core", "passes", "listsched", "schedule", "sim"}

// perLayer computes the traced run's metrics from the traced phase, the
// service counters over it, and the spans.
func perLayer(p phase, delta counters, spans map[string][]span, replayed int) result {
	t := tally(p)
	n := float64(max(len(p.outcomes), 1))
	m := map[string]metric{}
	svc := aggregate(spans["service"])
	perCall := func(d time.Duration, calls int) float64 { return ms(d) / float64(max(calls, 1)) }
	m["server.handle_ms"] = metric{perCall(svc.total["server.handle"], svc.count["server.handle"]), "ms"}
	m["server.admission_wait_ms"] = metric{delta.waitMs / float64(max(delta.admitted, 1)), "ms"}
	m["server.shed"] = metric{float64(delta.shed), "count"}
	m["cluster.self_ms"] = metric{perCall(svc.self["cluster.gateway"], svc.count["cluster.gateway"]), "ms"}
	m["cluster.forwards_per_req"] = metric{float64(delta.forwards) / float64(max(delta.requests, 1)), "ratio"}
	m["cluster.hedges"] = metric{float64(delta.hedges), "count"}
	m["cluster.reroutes"] = metric{float64(delta.reroutes), "count"}
	m["cluster.double_deliveries"] = metric{float64(delta.doubleDeliveries), "count"}
	lookups := delta.hits + delta.misses + delta.shared
	m["engine.hit_ratio"] = metric{float64(delta.hits) / float64(max(lookups, 1)), "ratio"}
	m["engine.misses"] = metric{float64(delta.misses), "count"}
	m["engine.evictions"] = metric{float64(delta.evictions), "count"}
	m["engine.collisions"] = metric{float64(delta.collisions), "count"}
	var rungMs float64
	var attempts, degraded int
	for _, o := range p.outcomes {
		rungMs += o.rungMs
		attempts += o.attempts
		if o.degraded {
			degraded++
		}
	}
	m["robust.rung_ms"] = metric{rungMs / n, "ms"}
	m["robust.attempts_per_req"] = metric{float64(attempts) / n, "ratio"}
	m["robust.degraded_frac"] = metric{float64(degraded) / n, "ratio"}
	m["runtime.alloc_kb_per_req"] = metric{float64(p.mallocs) / 1024 / n, "kB"}
	m["runtime.gc_cycles"] = metric{float64(p.gcs), "count"}

	rp := aggregate(spans["replay"])
	perReq := func(d time.Duration) float64 { return ms(d) / float64(max(replayed, 1)) }
	m["irtext.parse_ms"] = metric{perReq(rp.total["irtext.parse"]), "ms"}
	m["ir.canonical_ms"] = metric{perReq(rp.total["ir.canonical"]), "ms"}
	m["engine.schedule_ms"] = metric{perReq(rp.self["engine.schedule"]), "ms"}
	m["core.state_init_ms"] = metric{perReq(rp.total["core.state_init"]), "ms"}
	m["core.normalize_ms"] = metric{perReq(rp.total["core.normalize"]), "ms"}
	// Convergence is the passes and the normalization after each.
	converge := rp.total["core.normalize"]
	for _, name := range passNames {
		converge += rp.total["passes."+name]
		m["passes."+name+"_ms"] = metric{perReq(rp.total["passes."+name]), "ms"}
	}
	m["core.converge_ms"] = metric{perReq(converge), "ms"}
	m["listsched.run_ms"] = metric{perReq(rp.total["listsched.run"]), "ms"}
	m["schedule.validate_ms"] = metric{perReq(rp.total["schedule.validate"]), "ms"}
	m["sim.verify_ms"] = metric{perReq(rp.total["sim.verify"]), "ms"}
	for _, mod := range replayModules {
		m["self."+mod+"_ms"] = metric{perReq(rp.module[mod]), "ms"}
	}
	return result{
		Correct:   t.wrong == 0 && delta.doubleDeliveries == 0,
		Attempted: len(p.outcomes),
		Failed:    t.failed,
		Metrics:   m,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// save writes the result file and, for a traced run, the spans.
func save(dir string, rec *record, spans map[string][]span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace))
	if err := writeJSON(base+".json", rec); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return writeJSON(base+".spans.json", spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
