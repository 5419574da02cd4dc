package obs

// A dependency-free metrics registry rendering the Prometheus text
// exposition format (version 0.0.4). The repository deliberately has no
// external dependencies, so the subset a scheduling service needs is
// implemented here: counters, gauges, and fixed-bucket histograms, with or
// without labels, rendered deterministically (families sorted by name,
// children by label values) so golden tests can pin the exposed surface.
//
// Concurrency: metric updates are atomic (histograms take a per-child
// mutex); rendering takes each family's lock only long enough to snapshot
// it. A scrape therefore never blocks the serving path.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default histogram bucket ladder for request and rung
// latencies, in seconds.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// atomicFloat is a float64 with atomic add/set/load via bit casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d; negative deltas are ignored (counters only go up).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v.add(d)
	}
}

// Set mirrors an externally maintained monotonic counter (an engine or
// admission stat synced at scrape time). The value is clamped to never go
// backwards, so a racing sync cannot violate counter monotonicity.
func (c *Counter) Set(v float64) {
	for {
		old := c.v.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if c.v.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add moves the gauge by d (negative allowed).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.v.add(1) }
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // sorted upper bounds, +Inf implicit
	counts []uint64  // one per upper bound
	inf    uint64
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	if len(h.upper) == 0 || v > h.upper[len(h.upper)-1] {
		h.inf++
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// metricKind distinguishes family types in registration and rendering.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labelled instance inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is every metric sharing one name.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child // key = joined label values
}

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not valid; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// BeforeScrape registers a hook run at the start of every WriteTo call —
// the place to sync gauges and mirrored counters from point-in-time stat
// snapshots (engine cache, store, admission).
func (r *Registry) BeforeScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// register returns the family for name, creating it on first use. A name
// re-registered with a different type, help, or label set panics: that is a
// programming error the golden conformance test would otherwise chase.
func (r *Registry) register(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func validName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// get returns the labelled child, creating it on first use.
func (f *family) get(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), labelValues...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{
			upper:  f.buckets,
			counts: make([]uint64, len(f.buckets)),
		}
	}
	f.children[key] = c
	return c
}

// delete drops the labelled child, if any: its series leaves the next
// scrape, and a later get starts a fresh child.
func (f *family) delete(labelValues []string) {
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	delete(f.children, key)
	f.mu.Unlock()
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).get(nil).counter
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).get(nil).gauge
}

// Histogram registers (or returns) an unlabelled histogram with the given
// upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, buckets).get(nil).hist
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).counter
}

// Delete removes the counter for the given label values, so a series
// whose subject is gone stops being exported. A later With starts it
// again from zero.
func (v *CounterVec) Delete(labelValues ...string) { v.f.delete(labelValues) }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).gauge
}

// Delete removes the gauge for the given label values.
func (v *GaugeVec) Delete(labelValues ...string) { v.f.delete(labelValues) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family (nil buckets means
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues).hist
}

// FamilyInfo describes one registered family — the conformance surface the
// golden test pins (names, types, and label names; not values).
type FamilyInfo struct {
	Name       string
	Kind       string
	LabelNames []string
}

// Families lists every registered family, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{
			Name:       f.name,
			Kind:       string(f.kind),
			LabelNames: append([]string(nil), f.labelNames...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sample is one flattened metric sample: the fully labelled series name as
// it appears on a Prometheus text line, and its value. Histogram families
// flatten into their _bucket/_sum/_count series.
type sample struct {
	name  string
	value float64
}

// snapshot returns the hooks and the name-sorted family list.
func (r *Registry) snapshot() ([]func(), []*family) {
	r.mu.Lock()
	hooks := append(make([]func(), 0, len(r.hooks)), r.hooks...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return hooks, fams
}

// WriteTo renders the registry in the Prometheus text exposition format:
// BeforeScrape hooks first, then every family sorted by name, children
// sorted by label values. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	hooks, fams := r.snapshot()
	for _, h := range hooks {
		h()
	}
	var b strings.Builder
	for _, f := range fams {
		ss := f.samples()
		if len(ss) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			b.WriteString(s.name)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value))
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// samples flattens one family. The family lock covers the child map
// snapshot; each child's value reads are atomic (histograms lock per child).
func (f *family) samples() []sample {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	var out []sample
	for _, c := range children {
		switch f.kind {
		case kindCounter:
			out = append(out, sample{seriesName(f.name, f.labelNames, c.labelValues, "", ""), c.counter.Value()})
		case kindGauge:
			out = append(out, sample{seriesName(f.name, f.labelNames, c.labelValues, "", ""), c.gauge.Value()})
		case kindHistogram:
			c.hist.mu.Lock()
			cum := uint64(0)
			for i, ub := range c.hist.upper {
				cum += c.hist.counts[i]
				out = append(out, sample{seriesName(f.name+"_bucket", f.labelNames, c.labelValues, "le", formatFloat(ub)), float64(cum)})
			}
			out = append(out, sample{seriesName(f.name+"_bucket", f.labelNames, c.labelValues, "le", "+Inf"), float64(cum + c.hist.inf)})
			out = append(out, sample{seriesName(f.name+"_sum", f.labelNames, c.labelValues, "", ""), c.hist.sum})
			out = append(out, sample{seriesName(f.name+"_count", f.labelNames, c.labelValues, "", ""), float64(c.hist.count)})
			c.hist.mu.Unlock()
		}
	}
	return out
}

// seriesName renders name{labels}; extraName/extraValue append the
// histogram "le" label.
func seriesName(name string, labelNames, labelValues []string, extraName, extraValue string) string {
	if len(labelNames) == 0 && extraName == "" {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	first := true
	for i, ln := range labelNames {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", ln, escapeLabel(labelValues[i]))
	}
	if extraName != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format. %q already
// escapes backslash, quote, and newline the same way Prometheus expects.
func escapeLabel(s string) string { return s }

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
