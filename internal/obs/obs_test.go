package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Set(2) // backwards: clamped
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after backwards Set = %v, want 3.5", got)
	}
	c.Set(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter after forwards Set = %v, want 7", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(5)
	g.Dec()
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	out := render(t, r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		`test_seconds_sum 5.55`,
		`test_seconds_count 3`,
		"# TYPE test_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabelsAndSortedOutput(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "kind")
	v.With("zebra").Inc()
	v.With("alpha").Add(2)
	r.Gauge("a_gauge", "first alphabetically").Set(1)
	out := render(t, r)
	// Families sorted by name, children by label value.
	ia := strings.Index(out, "a_gauge")
	iz := strings.Index(out, `req_total{kind="zebra"}`)
	ial := strings.Index(out, `req_total{kind="alpha"}`)
	if !(ia < ial && ial < iz) {
		t.Fatalf("output not sorted:\n%s", out)
	}
	// Deterministic: two renders identical.
	if out2 := render(t, r); out2 != out {
		t.Fatalf("render not deterministic")
	}
}

// TestVecDelete: a deleted child leaves the scrape, its siblings stay, and
// With afterwards starts a fresh series from zero.
func TestVecDelete(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("del_total", "h", "shard")
	g := r.GaugeVec("del_alive", "h", "shard")
	for _, s := range []string{"a", "b"} {
		c.With(s).Add(5)
		g.With(s).Set(1)
	}
	c.Delete("a")
	g.Delete("a")
	c.Delete("nobody") // absent: no-op
	out := render(t, r)
	if strings.Contains(out, `shard="a"`) || !strings.Contains(out, `del_total{shard="b"} 5`) || !strings.Contains(out, `del_alive{shard="b"} 1`) {
		t.Fatalf("after deleting a:\n%s", out)
	}
	c.With("a").Set(2)
	if out := render(t, r); !strings.Contains(out, `del_total{shard="a"} 2`) {
		t.Fatalf("recreated counter does not start from zero:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "v").With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestRegisterIdempotentAndShapeCheck(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same_total", "h")
	c2 := r.Counter("same_total", "h")
	if c1 != c2 {
		t.Fatalf("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("same_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "h")
}

func TestBeforeScrapeHook(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("synced_gauge", "h")
	n := 0
	r.BeforeScrape(func() { n++; g.Set(float64(n)) })
	out := render(t, r)
	if !strings.Contains(out, "synced_gauge 1") {
		t.Fatalf("hook did not run before render:\n%s", out)
	}
	if out = render(t, r); !strings.Contains(out, "synced_gauge 2") {
		t.Fatalf("hook did not run on second render:\n%s", out)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "h")
	r.GaugeVec("a_gauge", "h", "x", "y")
	fams := r.Families()
	if len(fams) != 2 || fams[0].Name != "a_gauge" || fams[1].Name != "b_total" {
		t.Fatalf("Families = %+v", fams)
	}
	if fams[0].Kind != "gauge" || len(fams[0].LabelNames) != 2 {
		t.Fatalf("Families[0] = %+v", fams[0])
	}
}

func TestConcurrentUpdatesDuringScrape(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("cc_total", "h", "w")
	h := r.Histogram("cc_seconds", "h", nil)
	g := r.Gauge("cc_gauge", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lbl := string(rune('a' + i%4))
			for j := 0; j < 500; j++ {
				c.With(lbl).Inc()
				h.Observe(float64(j) / 100)
				g.Set(float64(j))
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		render(t, r)
	}
	wg.Wait()
	total := 0.0
	for i := 0; i < 4; i++ {
		total += c.With(string(rune('a' + i))).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost counter increments: %v", total)
	}
}

func TestFormatFloatInf(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatFloat(+Inf) = %q", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.RecordPass(PassDelta{})
	tr.RecordAttempt(AttemptRec{})
	tr.SetCachePath(CacheHit)
	tr.SetPersisted()
	tr.RecordBreaker(BreakerEvent{})
	if tr.Snapshot() != nil {
		t.Fatalf("nil trace snapshot should be nil")
	}
}

func TestTraceRecordAndMarshal(t *testing.T) {
	tr := NewTrace("mxm", "raw4")
	tr.RecordPass(PassDelta{Rung: "convergent", Pass: "PATH", Changed: 3, MinTotal: 1, MaxTotal: 1})
	tr.RecordAttempt(AttemptRec{Rung: "convergent", Ms: 1.5, OK: true})
	tr.SetCachePath(CacheMiss)
	tr.SetPersisted()
	tr.RecordBreaker(BreakerEvent{Key: "convergent@abc", From: "closed", To: "open"})
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Graph != "mxm" || back.Machine != "raw4" || len(back.Passes) != 1 ||
		len(back.Attempts) != 1 || back.CachePath != CacheMiss || !back.Persisted ||
		len(back.Breakers) != 1 {
		t.Fatalf("round trip mismatch: %+v", &back)
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("g", "m")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr.RecordPass(PassDelta{Pass: "NOISE"})
				tr.RecordAttempt(AttemptRec{Rung: "r"})
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := json.Marshal(tr); err != nil {
			t.Fatalf("marshal during recording: %v", err)
		}
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Passes) != 800 || len(snap.Attempts) != 800 {
		t.Fatalf("lost records: %d passes, %d attempts", len(snap.Passes), len(snap.Attempts))
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Fatalf("missing trace should be nil")
	}
	tr := NewTrace("g", "m")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatalf("trace not recovered from context")
	}
	if RungFromContext(ctx) != "" {
		t.Fatalf("rung should default empty")
	}
	ctx = WithRung(ctx, "convergent")
	if RungFromContext(ctx) != "convergent" {
		t.Fatalf("rung not recovered")
	}
	if RungFromContext(nil) != "" {
		t.Fatalf("nil ctx rung should be empty")
	}
}
