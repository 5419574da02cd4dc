package server

// The server's metric surface: a dependency-free Prometheus registry
// (internal/obs) served at GET /metrics. Two kinds of series live here:
//
//   - Event-driven: request/rung latency histograms and breaker-transition
//     counters, observed at the moment they happen.
//   - Scrape-synced: counters and gauges mirrored from the engine, admission,
//     and store stat snapshots by a BeforeScrape hook, so /metrics never
//     maintains a second set of hot-path counters. Mirrored counters stay
//     monotonic because their sources are monotonic (and obs.Counter.Set
//     clamps against going backwards).
//
// The registered names and label sets are pinned by the golden list under
// testdata/metrics_families.golden — add new series there deliberately.

import (
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/robust"
)

// metrics bundles the server's registry and its event-driven instruments.
type metrics struct {
	reg *obs.Registry

	requestSeconds *obs.HistogramVec // by outcome: ok|error
	rungSeconds    *obs.HistogramVec // by rung name
	breakerFlips   *obs.CounterVec   // by destination state
	tracedRequests *obs.Counter

	// Tenant QoS series. Histograms are labelled by class (bounded
	// cardinality); counters and gauges by tenant, whose cardinality the
	// admission layer caps at maxTrackedTenants.
	tenantSeconds *obs.HistogramVec // by class
	tenantShed    *obs.CounterVec   // by tenant, cause (event-driven)

	// Per-tenant latency percentiles, cardinality-bounded by topK: the K
	// busiest tenants earn a dedicated label, everyone else lands in the
	// overflow label — so p99-by-tenant is scrapeable without letting an
	// identity flood mint unbounded histogram series.
	tenantLatency *obs.HistogramVec // by tenant (top-K + overflow)
	topK          *topKTracker
}

// Bounds for the per-tenant latency histogram: at most topKTenantSlots
// dedicated labels, each earned only after topKSlotThreshold requests, so a
// one-off name can never burn a slot.
const (
	topKTenantSlots   = 8
	topKSlotThreshold = 16
)

// topKTracker grants dedicated histogram labels to the first K tenants that
// prove sustained volume. Histogram observations cannot be re-homed between
// labels, so slots are granted once and never revoked; a tenant's
// observations before it earns its slot stay in the overflow label.
type topKTracker struct {
	mu        sync.Mutex
	k         int
	threshold uint64
	counts    map[string]uint64
	slots     map[string]bool
}

func newTopKTracker(k int, threshold uint64) *topKTracker {
	return &topKTracker{
		k:         k,
		threshold: threshold,
		counts:    make(map[string]uint64),
		slots:     make(map[string]bool),
	}
}

// labelFor returns the histogram label for one observation by tenant: the
// tenant itself once it has earned a slot, the overflow label otherwise.
// The count map is bounded like the admission layer's tenant map, so a
// label-flood attack costs at most maxTrackedTenants counter cells.
func (t *topKTracker) labelFor(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots[tenant] {
		return tenant
	}
	if _, known := t.counts[tenant]; !known && len(t.counts) >= maxTrackedTenants {
		return overflowTenant
	}
	t.counts[tenant]++
	if t.counts[tenant] >= t.threshold && len(t.slots) < t.k {
		t.slots[tenant] = true
		return tenant
	}
	return overflowTenant
}

// newMetrics registers every series and installs the scrape-time sync from
// the server's stat snapshots.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requestSeconds: reg.HistogramVec("schedd_request_seconds",
			"Admission-to-response latency of /schedule requests.", nil, "outcome"),
		rungSeconds: reg.HistogramVec("schedd_rung_seconds",
			"Per-rung scheduling attempt latency.", nil, "rung"),
		breakerFlips: reg.CounterVec("schedd_breaker_transitions_total",
			"Circuit-breaker state transitions by destination state.", "to"),
		tracedRequests: reg.Counter("schedd_traced_requests_total",
			"Requests served with ?trace=1."),
		tenantSeconds: reg.HistogramVec("schedd_tenant_request_seconds",
			"Admission-to-response latency of /schedule requests by priority class.", nil, "class"),
		tenantShed: reg.CounterVec("schedd_tenant_shed_total",
			"Requests shed by admission control, by tenant and cause.", "tenant", "cause"),
		tenantLatency: reg.HistogramVec("schedd_tenant_latency_seconds",
			"Admission-to-response latency by tenant: dedicated labels for the busiest tenants, the rest under the overflow label.", nil, "tenant"),
		topK: newTopKTracker(topKTenantSlots, topKSlotThreshold),
	}

	// Admission counters and queue gauges.
	accepted := reg.Counter("schedd_requests_accepted_total", "Requests admitted past rate limiter and queue bound.")
	shed := reg.CounterVec("schedd_requests_shed_total", "Requests shed by admission control, by cause.", "cause")
	timeouts := reg.Counter("schedd_requests_timeout_total", "Admitted requests that hit their deadline.")
	completed := reg.Counter("schedd_requests_completed_total", "Requests finished with a schedule.")
	failed := reg.Counter("schedd_requests_failed_total", "Requests finished with a scheduling error.")
	queueDepth := reg.Gauge("schedd_queue_depth", "Admitted-but-unfinished requests right now.")
	queueCap := reg.Gauge("schedd_queue_capacity", "Bound of the admission queue.")

	// Tenant QoS counters and class-queue gauges, mirrored from the
	// admission snapshot at scrape time (tenant cardinality is bounded by
	// the admission layer's tenant-map cap).
	tenantRequests := reg.CounterVec("schedd_tenant_requests_total",
		"Admitted requests finished, by tenant and outcome.", "tenant", "outcome")
	tenantAccepted := reg.CounterVec("schedd_tenant_accepted_total",
		"Requests admitted past every bound, by tenant.", "tenant")
	tenantInflight := reg.GaugeVec("schedd_tenant_inflight",
		"Admitted-but-unfinished requests right now, by tenant.", "tenant")
	classDepth := reg.GaugeVec("schedd_tenant_class_queue_depth",
		"Admitted-but-unfinished requests per priority class.", "class")
	classCap := reg.GaugeVec("schedd_tenant_class_queue_capacity",
		"Bound of each priority class's admission queue.", "class")
	classWeight := reg.GaugeVec("schedd_tenant_class_weight",
		"Deficit-round-robin weight of each priority class.", "class")
	classGranted := reg.CounterVec("schedd_tenant_class_granted_total",
		"Worker grants the weighted-fair dequeuer gave each class.", "class")

	// Engine cache counters and occupancy.
	cacheCounter := reg.CounterVec("schedd_cache_events_total", "Schedule-cache events by kind.", "kind")
	cacheSize := reg.Gauge("schedd_cache_size", "Schedule-cache entries resident.")
	cacheCap := reg.Gauge("schedd_cache_capacity", "Schedule-cache entry bound.")

	// Peer cache-handoff counters (all zero when no peer key is configured).
	peerEvents := reg.CounterVec("schedd_peer_events_total", "Peer cache-handoff events by kind.", "kind")

	// Persistent-store counters (all zero when no store is attached).
	storeCounter := reg.CounterVec("schedd_store_events_total", "Persistent-store write-behind events by kind.", "kind")
	storeQueueDepth := reg.Gauge("schedd_store_queue_depth", "Write-behind flush queue depth.")
	storeRecovered := reg.Gauge("schedd_store_recovered", "1 once recovery replay has completed.")
	storeReplayed := reg.Counter("schedd_store_replayed_total", "Records replayed into the cache at recovery.")

	// Lifecycle gauges: drain progress is inflight requests still running
	// while schedd_draining is 1.
	ready := reg.Gauge("schedd_ready", "1 when /readyz would answer ready.")
	draining := reg.Gauge("schedd_draining", "1 once a drain has started.")
	inflight := reg.Gauge("schedd_inflight", "Requests currently inside /schedule.")
	panics := reg.Counter("schedd_panics_total", "Handler panics contained by the recovery middleware.")
	breakersOpen := reg.Gauge("schedd_breakers_open", "Breakers currently open or half-open.")

	reg.BeforeScrape(func() {
		ast := s.adm.stats()
		accepted.Set(float64(ast.Accepted))
		shed.With("queue").Set(float64(ast.ShedQueue))
		shed.With("rate").Set(float64(ast.ShedRate))
		shed.With("quota").Set(float64(ast.ShedQuota))
		timeouts.Set(float64(ast.Timeouts))
		completed.Set(float64(ast.Completed))
		failed.Set(float64(ast.Failed))
		queueDepth.Set(float64(ast.QueueDepth))
		queueCap.Set(float64(ast.QueueCapacity))

		for _, ts := range ast.Tenants {
			tenantRequests.With(ts.Tenant, "ok").Set(float64(ts.Completed))
			tenantRequests.With(ts.Tenant, "error").Set(float64(ts.Failed))
			tenantAccepted.With(ts.Tenant).Set(float64(ts.Accepted))
			tenantInflight.With(ts.Tenant).Set(float64(ts.Inflight))
		}
		for _, cs := range ast.Classes {
			classDepth.With(cs.Class).Set(float64(cs.QueueDepth))
			classCap.With(cs.Class).Set(float64(cs.QueueCapacity))
			classWeight.With(cs.Class).Set(float64(cs.Weight))
			classGranted.With(cs.Class).Set(float64(cs.Granted))
		}

		est := s.engine.Stats()
		cacheCounter.With("hit").Set(float64(est.Hits))
		cacheCounter.With("miss").Set(float64(est.Misses))
		cacheCounter.With("shared").Set(float64(est.Shared))
		cacheCounter.With("eviction").Set(float64(est.Evictions))
		cacheCounter.With("collision").Set(float64(est.Collisions))
		cacheCounter.With("uncacheable").Set(float64(est.Uncacheable))
		cacheCounter.With("detached").Set(float64(est.Detached))
		cacheSize.Set(float64(est.Size))
		cacheCap.Set(float64(est.Capacity))

		pst := s.peer.snapshot(s.cfg.PeerKey != "")
		peerEvents.With("lookup").Set(float64(pst.Lookups))
		peerEvents.With("hit").Set(float64(pst.Hits))
		peerEvents.With("miss").Set(float64(pst.Misses))
		peerEvents.With("error").Set(float64(pst.Errors))
		peerEvents.With("rejected").Set(float64(pst.Rejected))
		peerEvents.With("bad-hint").Set(float64(pst.BadHints))
		peerEvents.With("served").Set(float64(pst.Served))
		peerEvents.With("import").Set(float64(pst.Imports))
		peerEvents.With("import-rejected").Set(float64(pst.ImportRejected))
		peerEvents.With("auth-failure").Set(float64(pst.AuthFailures))

		storeCounter.With("flushed").Set(float64(est.Persist.Flushed))
		storeCounter.With("flush-error").Set(float64(est.Persist.FlushErrors))
		storeCounter.With("backpressure").Set(float64(est.Persist.Backpressure))
		storeCounter.With("skipped-unnamed").Set(float64(est.Persist.SkippedUnnamed))
		storeQueueDepth.Set(float64(est.Persist.QueueDepth))
		if est.Persist.Recovered {
			storeRecovered.Set(1)
		} else {
			storeRecovered.Set(0)
		}
		storeReplayed.Set(float64(est.Persist.Recovery.Replayed))

		// Mirror /readyz exactly: started, not draining, queue not full.
		if s.ready.Load() && !s.draining.Load() && ast.QueueDepth < ast.QueueCapacity {
			ready.Set(1)
		} else {
			ready.Set(0)
		}
		if s.draining.Load() {
			draining.Set(1)
		} else {
			draining.Set(0)
		}
		inflight.Set(float64(s.inflight.Current()))
		panics.Set(float64(s.panics.Load()))
		open := 0
		for _, b := range s.breakers.Snapshot() {
			if b.State != robust.BreakerClosed {
				open++
			}
		}
		breakersOpen.Set(float64(open))
	})
	return m
}

// observeBreaker is the robust.BreakerSet observer: it runs under the
// breaker set's lock, so it only bumps a counter.
func (m *metrics) observeBreaker(key string, from, to robust.BreakerState) {
	m.breakerFlips.With(string(to)).Inc()
}

// observeRequest records one finished /schedule request.
func (m *metrics) observeRequest(tenant, class string, seconds float64, failed bool) {
	outcome := "ok"
	if failed {
		outcome = "error"
	}
	m.requestSeconds.With(outcome).Observe(seconds)
	if class != "" {
		m.tenantSeconds.With(class).Observe(seconds)
	}
	if tenant != "" {
		m.tenantLatency.With(m.topK.labelFor(tenant)).Observe(seconds)
	}
}

// observeShed records one 429 at the moment it is shed, attributed to the
// tenant and the admission bound that rejected it.
func (m *metrics) observeShed(tenant, cause string) {
	m.tenantShed.With(tenant, cause).Inc()
}

// observeReport records the per-rung attempt latencies of a freshly computed
// schedule (cache hits and shared flights carry no report).
func (m *metrics) observeReport(rep *robust.Report) {
	if rep == nil {
		return
	}
	for _, a := range rep.Attempts {
		m.rungSeconds.With(a.Rung).Observe(a.Duration.Seconds())
	}
}

// handleMetrics serves GET /metrics in the Prometheus text format. It stays
// servable during drain: scraping a draining server is how an operator
// watches drain progress (schedd_draining=1, schedd_inflight falling).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "GET /metrics", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	s.metrics.reg.WriteTo(w)
}
