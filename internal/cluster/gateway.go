package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/irtext"
	"repro/internal/robust"
	"repro/internal/server"
)

// Config configures a Gateway. The zero value of every field other than
// Shards selects a sensible production default.
type Config struct {
	// Shards lists the schedd backends as host:port or full http:// URLs.
	// At least one is required.
	Shards []string
	// HedgeAfter, when positive, is a fixed budget after which a second
	// attempt fires at the next shard on the ring. 0 selects the adaptive
	// budget: the p95 of recent delivered-200 latencies, clamped to
	// [25ms, 2s].
	HedgeAfter time.Duration
	// MaxRetries bounds full re-scans of the candidate list after connection
	// errors, each preceded by full-jitter backoff. Default 2, at most 16;
	// negative disables retry.
	MaxRetries int
	// RetryBase is the backoff base: retry pass k waits uniform(0, base<<k].
	// Default 25ms, at most 1m.
	RetryBase time.Duration
	// ProbeEvery is the /readyz poll interval. Default 250ms.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe. Default 1s.
	ProbeTimeout time.Duration
	// Breakers overrides the per-shard breaker policy. Zero means defaults.
	Breakers robust.BreakerPolicy
	// Keys, when non-empty, enables tenant API-key auth at the edge: a
	// request claiming a tenant identity must present the matching
	// X-Schedd-Key. Both headers are forwarded so shards can re-verify.
	Keys server.KeySet
	// AdminKey, when non-empty, enables the live-membership admin API
	// (POST/DELETE /admin/shards): callers must present it in
	// X-Schedgw-Admin-Key. It also keys the membership-epoch signature
	// published in /stats. Empty disables the API — membership is static.
	AdminKey string
	// PeerKey is the shared cluster secret for shard-to-shard cache handoff.
	// When set, the gateway signs previous-owner hints (X-Schedd-Peer) onto
	// forwarded requests after membership changes, and authenticates its
	// rebalance calls to shard /cache endpoints. Must match the shards'
	// -peer-key. Empty disables hints and rebalance pushes.
	PeerKey string
	// RebalanceK is how many of a gracefully departing shard's hottest cache
	// entries are pushed to their new owners during DELETE /admin/shards.
	// Default 32.
	RebalanceK int
	// Transport overrides the forwarding round-tripper (tests). Nil means
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

const (
	// hedgeMin and hedgeMax clamp the adaptive hedge budget. Until the
	// latency window has enough samples the budget is hedgeMax — hedge
	// conservatively before there is evidence.
	hedgeMin = 25 * time.Millisecond
	hedgeMax = 2 * time.Second
	// maxRetries and maxRetryBase bound Config.MaxRetries and RetryBase so
	// that route's results channel stays small and the largest backoff,
	// maxRetryBase<<maxRetries, fits in a time.Duration.
	maxRetries   = 16
	maxRetryBase = time.Minute
)

// Gateway is the routing tier: an http.Handler that consistent-hashes each
// /schedule request onto the shard fleet, with health-probed breakers,
// hedged requests, bounded retry, and quorum degradation. Create one with
// NewGateway and Start it before serving.
type Gateway struct {
	cfg      Config
	breakers *robust.BreakerSet
	client   *http.Client
	prober   *prober
	mux      *http.ServeMux
	metrics  *gwMetrics
	lat      *latWindow
	start    time.Time

	// Live membership, all guarded by memMu. The ring, the shard list, and
	// the epoch move together under one write lock so a routing decision
	// never sees a half-applied membership change. prevRing is the ring as it
	// was before the most recent change — the source of previous-owner peer
	// hints. The ring-routing quorum is always a majority of order
	// (quorumLocked).
	memMu    sync.RWMutex
	ring     *Ring
	prevRing *Ring
	order    []*shard // join order, for degraded round-robin
	byName   map[string]*shard
	bases    map[string]string // every name ever known -> base URL (departed shards included, for peer hints)
	epoch    uint64

	draining atomic.Bool
	inflight server.InflightGauge
	rr       atomic.Uint64 // degraded-mode rotation

	requests         atomic.Uint64 // /schedule requests accepted for routing
	delivered        atomic.Uint64 // responses written to clients
	hedges           atomic.Uint64 // attempts launched by the hedge timer
	hedgeWins        atomic.Uint64 // delivered responses won by a hedge
	reroutes         atomic.Uint64 // candidates skipped or failed over past
	retries          atomic.Uint64 // full-jitter retry passes
	quorumDegraded   atomic.Uint64 // requests routed in any-alive-shard mode
	noShard          atomic.Uint64 // requests with no eligible shard at all
	authFailures     atomic.Uint64 // identity claims rejected at the edge
	badRequests      atomic.Uint64 // bodies rejected before routing
	doubleDeliveries atomic.Uint64 // INVARIANT: stays 0 — two results for one request
	lateResults      atomic.Uint64 // loser attempts discarded after delivery

	peerHints     atomic.Uint64 // forwarded requests stamped with a previous-owner hint
	joins         atomic.Uint64 // shards added through the admin API
	leaves        atomic.Uint64 // shards removed through the admin API
	hotPushed     atomic.Uint64 // records pushed to new owners during graceful leaves
	hotPushErrors atomic.Uint64 // rebalance pushes that failed or were refused

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewGateway validates cfg and builds the gateway. Start must be called
// before the handler can route.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.MaxRetries > maxRetries {
		return nil, fmt.Errorf("cluster: max retries %d exceeds %d", cfg.MaxRetries, maxRetries)
	}
	if cfg.RetryBase > maxRetryBase {
		return nil, fmt.Errorf("cluster: retry base %s exceeds %s", cfg.RetryBase, maxRetryBase)
	}
	if cfg.RebalanceK <= 0 {
		cfg.RebalanceK = 32
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(),
		breakers: robust.NewBreakerSet(cfg.Breakers),
		byName:   make(map[string]*shard, len(cfg.Shards)),
		bases:    make(map[string]string, len(cfg.Shards)),
		mux:      http.NewServeMux(),
		lat:      newLatWindow(512),
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, raw := range cfg.Shards {
		name, base, err := parseShardAddr(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: %v", err)
		}
		if _, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("cluster: shard %q listed twice", name)
		}
		s := &shard{name: name, base: base}
		g.byName[name] = s
		g.bases[name] = base
		g.order = append(g.order, s)
		g.ring.Add(name)
	}
	g.client = &http.Client{Transport: cfg.Transport}
	probeClient := &http.Client{Transport: cfg.Transport, Timeout: cfg.ProbeTimeout}
	g.prober = newProber(g.order, g.breakers, probeClient, cfg.ProbeEvery)
	g.metrics = newGwMetrics(g)
	g.breakers.SetObserver(g.metrics.observeBreaker)
	g.mux.HandleFunc("/schedule", g.handleSchedule)
	g.mux.HandleFunc("/admin/shards", g.handleAdminShards)
	g.mux.HandleFunc("/admin/shards/", g.handleAdminShards)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.HandleFunc("/stats", g.handleStats)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// Start runs the first probe sweep synchronously and launches the probe
// loop; the gateway never routes on a wholly unknown fleet.
func (g *Gateway) Start() { g.prober.start() }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// latWindow is a fixed ring of recent delivered-200 latencies; the adaptive
// hedge budget reads its p95.
type latWindow struct {
	mu  sync.Mutex
	buf []time.Duration
	tmp []time.Duration // p95's sort scratch, reused by every call
	n   int
	i   int
}

func newLatWindow(size int) *latWindow { return &latWindow{buf: make([]time.Duration, size)} }

func (w *latWindow) add(d time.Duration) {
	w.mu.Lock()
	w.buf[w.i] = d
	w.i = (w.i + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// p95 reports the 95th percentile of the window, and false until at least 32
// samples exist — no evidence, no aggressive hedging.
func (w *latWindow) p95() (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 32 {
		return 0, false
	}
	w.tmp = append(w.tmp[:0], w.buf[:w.n]...)
	slices.Sort(w.tmp)
	return w.tmp[(len(w.tmp)*95)/100], true
}

// hedgeBudget is how long the primary attempt gets before a hedge fires.
func (g *Gateway) hedgeBudget() time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	p, ok := g.lat.p95()
	if !ok {
		return hedgeMax
	}
	return min(max(p, hedgeMin), hedgeMax)
}

// fullJitter returns uniform(0, d].
func (g *Gateway) fullJitter(d time.Duration) time.Duration {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return time.Duration(g.rng.Int63n(int64(d))) + 1
}

// attempt is the outcome of one forwarded request.
type attempt struct {
	shard  *shard
	hedged bool
	code   int
	header http.Header
	body   []byte
	err    error
}

// retryable reports whether the outcome says "try another shard": a
// transport error, or a shard answering 502/503 (draining, starting,
// overload-refusing at the listener). Everything else — including a 429
// shed and a structured 500 sched-failure — is a real answer computed for
// this request, and recomputing it elsewhere would at best duplicate work.
func (a *attempt) retryable() bool {
	return a.err != nil || a.code == http.StatusBadGateway || a.code == http.StatusServiceUnavailable
}

// forward sends one attempt to a shard and reports the outcome on results.
// The channel is buffered for every attempt the request can launch, so a
// losing attempt never blocks after the winner is delivered.
func (g *Gateway) forward(ctx context.Context, s *shard, query string, header http.Header, body []byte, hedged bool, hint *peerHint, results chan<- *attempt) {
	s.forwarded.Add(1)
	a := &attempt{shard: s, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/schedule?"+query, bytes.NewReader(body))
	if err == nil {
		for _, h := range []string{"Content-Type", "X-Schedd-Tenant", server.TenantKeyHeader, "X-Schedd-Deadline"} {
			if v := header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		// A previous-owner hint rides every attempt except one aimed at the
		// previous owner itself — it already has the record or never will.
		if hint != nil && s.name != hint.owner {
			req.Header.Set(server.PeerHeader, hint.base)
			req.Header.Set(server.PeerSigHeader, hint.sig)
		}
		var resp *http.Response
		if resp, err = g.client.Do(req); err == nil {
			a.code = resp.StatusCode
			a.header = resp.Header
			a.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	a.err = err
	switch {
	case err != nil && ctx.Err() != nil:
		// The losing side of a settled race: its context was cancelled, so
		// the outcome says nothing about the shard's health. Hand back a
		// half-open probe slot if this attempt held one.
		g.breakers.Cancel(s.name)
	case a.retryable():
		s.failures.Add(1)
		g.breakers.Record(s.name, false)
	default:
		g.breakers.Record(s.name, true)
	}
	results <- a
}

// plan picks the candidate order for a key: ring-owner order normally, or
// any-alive-shard rotation when the fleet is below quorum. The whole
// decision runs under the membership read lock so a concurrent join/leave
// can never show it a half-applied fleet.
func (g *Gateway) plan(key uint64) (cands []*shard, degraded bool) {
	g.memMu.RLock()
	defer g.memMu.RUnlock()
	alive := 0
	for _, s := range g.order {
		if s.alive.Load() {
			alive++
		}
	}
	if alive >= g.quorumLocked() {
		names := g.ring.Owners(key, len(g.order))
		cands = make([]*shard, 0, len(names))
		for _, n := range names {
			cands = append(cands, g.byName[n])
		}
		return cands, false
	}
	// Below quorum: cache affinity is a luxury; route to whoever is alive,
	// rotating the start so the survivors share the load.
	start := int(g.rr.Add(1))
	n := len(g.order)
	for i := 0; i < n; i++ {
		if s := g.order[(start+i)%n]; s.alive.Load() {
			cands = append(cands, s)
		}
	}
	return cands, true
}

// gwError is a structured gateway-authored error response.
type gwError struct {
	code    int
	kind    string
	message string
	retry   int // Retry-After seconds, 0 omits
}

func (g *Gateway) writeError(w http.ResponseWriter, e *gwError) {
	if e.retry > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(e.retry))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.code)
	body := map[string]map[string]string{"error": {"kind": e.kind, "message": e.message}}
	_ = json.NewEncoder(w).Encode(body)
}

// claim marks the single delivery of a routed request's outcome. Every
// return path of route claims its request's gate exactly once; a second
// claim would mean two results flowed toward one client, and trips the
// doubleDeliveries invariant counter instead of going unnoticed.
func (g *Gateway) claim(gate *atomic.Int32) {
	if gate.Add(1) != 1 {
		g.doubleDeliveries.Add(1)
	}
}

// route drives one request to a deliverable outcome: primary attempt at the
// ring owner, a hedge at the next shard after the latency budget, failover
// on retryable outcomes, and bounded full-jitter retry passes on connection
// errors. Exactly one of (attempt, error) is non-nil, and exactly one
// return happens per call — each return path claims gate to prove it.
func (g *Gateway) route(ctx context.Context, gate *atomic.Int32, key uint64, query string, header http.Header, body []byte, hint *peerHint) (*attempt, *gwError) {
	cands, degraded := g.plan(key)
	if degraded {
		g.quorumDegraded.Add(1)
	}
	if len(cands) == 0 {
		g.noShard.Add(1)
		g.claim(gate)
		return nil, &gwError{code: http.StatusServiceUnavailable, kind: "unavailable",
			message: "no shard alive; cluster below minimum capacity", retry: 1}
	}

	maxLaunches := len(cands)*(g.cfg.MaxRetries+1) + 1
	results := make(chan *attempt, maxLaunches)
	next, inFlight, launched := 0, 0, 0
	// launch starts the next eligible candidate. Skipped candidates (dead,
	// or breaker open) count as reroutes: the ring said "here", health said
	// "elsewhere".
	launch := func(hedged bool) bool {
		for next < len(cands) && launched < maxLaunches {
			s := cands[next]
			next++
			if !s.alive.Load() || !g.breakers.Allow(s.name) {
				g.reroutes.Add(1)
				continue
			}
			inFlight++
			launched++
			go g.forward(ctx, s, query, header, body, hedged, hint, results)
			return true
		}
		return false
	}

	drain := func() {
		// Losing attempts still in flight finish against a cancelled
		// context and land in the buffered channel; account for them so
		// the no-double-completion invariant is observable.
		if inFlight == 0 {
			return
		}
		remaining := inFlight
		go func() {
			for i := 0; i < remaining; i++ {
				<-results
				g.lateResults.Add(1)
			}
		}()
	}

	if !launch(false) {
		g.noShard.Add(1)
		g.claim(gate)
		return nil, &gwError{code: http.StatusServiceUnavailable, kind: "unavailable",
			message: "no eligible shard (all dead or breaker-open)", retry: 1}
	}

	hedgeTimer := time.NewTimer(g.hedgeBudget())
	defer hedgeTimer.Stop()
	hedged := false
	retryPasses := 0
	var retryCh <-chan time.Time
	var lastFail *attempt
	for {
		select {
		case a := <-results:
			inFlight--
			if !a.retryable() {
				g.claim(gate)
				drain()
				return a, nil
			}
			lastFail = a
			// The ring's pick answered "not me" — whatever happens next
			// (failover, retry pass, or giving up), the request was routed
			// away from it.
			g.reroutes.Add(1)
			if launch(a.hedged) {
				continue
			}
			if inFlight > 0 {
				continue // the other side of the race may still win
			}
			if a.err != nil && retryPasses < g.cfg.MaxRetries {
				// Connection errors get bounded, jittered re-dials: a shard
				// mid-restart refuses for a moment, and a synchronized
				// stampede of instant retries would keep it down.
				retryPasses++
				g.retries.Add(1)
				next = 0
				retryCh = time.After(g.fullJitter(g.cfg.RetryBase << uint(retryPasses)))
				continue
			}
			g.claim(gate)
			return nil, g.upstreamError(lastFail)
		case <-retryCh:
			retryCh = nil
			if launch(false) {
				continue
			}
			if inFlight == 0 {
				g.claim(gate)
				return nil, g.upstreamError(lastFail)
			}
		case <-hedgeTimer.C:
			if !hedged && inFlight > 0 && launch(true) {
				hedged = true
				g.hedges.Add(1)
			}
		case <-ctx.Done():
			g.claim(gate)
			drain()
			return nil, &gwError{code: http.StatusGatewayTimeout, kind: "deadline",
				message: fmt.Sprintf("request context ended while routing: %v", ctx.Err())}
		}
	}
}

// upstreamError maps an exhausted routing loop onto a structured error.
func (g *Gateway) upstreamError(last *attempt) *gwError {
	if last == nil {
		return &gwError{code: http.StatusServiceUnavailable, kind: "unavailable",
			message: "no eligible shard", retry: 1}
	}
	if last.err != nil {
		return &gwError{code: http.StatusBadGateway, kind: "upstream",
			message: fmt.Sprintf("shard %s unreachable after retries: %v", last.shard.name, last.err), retry: 1}
	}
	return &gwError{code: http.StatusServiceUnavailable, kind: "unavailable",
		message: fmt.Sprintf("shard %s refused (status %d) and no alternative is eligible", last.shard.name, last.code), retry: 1}
}

func (g *Gateway) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, &gwError{code: http.StatusMethodNotAllowed, kind: "bad-request",
			message: "POST a .ddg body to /schedule"})
		return
	}
	g.inflight.Enter()
	defer g.inflight.Exit()
	if g.draining.Load() {
		g.writeError(w, &gwError{code: http.StatusServiceUnavailable, kind: "draining",
			message: "gateway is draining; retry against another instance", retry: 1})
		return
	}

	// Edge auth: reject forged identity claims before any shard pays for
	// them. The verified headers are forwarded as-is so shards configured
	// with the same keys re-verify.
	if err := g.cfg.Keys.VerifyRequest(r); err != nil {
		g.authFailures.Add(1)
		g.writeError(w, &gwError{code: http.StatusUnauthorized, kind: "unauthorized", message: err.Error()})
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		g.badRequests.Add(1)
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: fmt.Sprintf("reading body: %v", err)})
		return
	}
	// The routing key is the same canonical fingerprint the shard's engine
	// keys its cache on — that is what partitions the content-addressed
	// cache across the fleet. Parsing also rejects garbage at the edge.
	gr, err := irtext.Parse(bytes.NewReader(body))
	if err != nil {
		g.badRequests.Add(1)
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request", message: err.Error()})
		return
	}
	key := KeyFor(gr.CanonicalHash())
	g.requests.Add(1)
	// After a membership change, a request whose keyspace segment moved is
	// stamped with a signed previous-owner hint so the new owner can fetch
	// the record instead of recomputing (peer cache lookup before compute).
	hint := g.hintFor(key)
	if hint != nil {
		g.peerHints.Add(1)
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel() // settles the race: the losing attempt's context ends here

	t0 := time.Now()
	gate := new(atomic.Int32)
	won, gerr := g.route(ctx, gate, key, r.URL.RawQuery, r.Header, body, hint)
	if gerr != nil {
		g.metrics.requestSeconds.With("error").Observe(time.Since(t0).Seconds())
		g.writeError(w, gerr)
		return
	}
	won.shard.served.Add(1)
	if won.hedged {
		g.hedgeWins.Add(1)
	}
	g.delivered.Add(1)
	outcome := "ok"
	if won.code != http.StatusOK {
		outcome = "upstream-error"
	} else {
		g.lat.add(time.Since(t0))
	}
	g.metrics.requestSeconds.With(outcome).Observe(time.Since(t0).Seconds())

	for _, h := range []string{"Content-Type", "Retry-After", server.ShardHeader} {
		if v := won.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Schedgw-Shard", won.shard.name)
	if won.hedged {
		w.Header().Set("X-Schedgw-Hedged", "1")
	}
	w.WriteHeader(won.code)
	if _, werr := w.Write(won.body); werr != nil {
		g.cfg.Logf("schedgw: writing response: %v", werr)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the external load balancer's routing signal. It reports
// not-ready not only when the gateway itself cannot serve (draining, nothing
// alive) but also when the fleet is below quorum: the gateway still answers
// /schedule in degraded any-alive-shard mode, but an LB with a healthier
// gateway available should prefer it over one routing blind.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	alive, quorum := g.aliveCount(), g.quorumNow()
	switch {
	case g.draining.Load():
		g.writeError(w, &gwError{code: http.StatusServiceUnavailable, kind: "draining",
			message: "gateway is draining", retry: 1})
	case alive == 0:
		g.writeError(w, &gwError{code: http.StatusServiceUnavailable, kind: "unavailable",
			message: "no shard alive", retry: 1})
	case alive < quorum:
		g.writeError(w, &gwError{code: http.StatusServiceUnavailable, kind: "degraded",
			message: fmt.Sprintf("%d of %d-quorum shards alive; routing degraded to any-alive-shard mode", alive, quorum), retry: 1})
	default:
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ready")
	}
}

func (g *Gateway) aliveCount() int {
	n := 0
	for _, s := range g.members() {
		if s.alive.Load() {
			n++
		}
	}
	return n
}

// ShardStats is one backend's row in /stats.
type ShardStats struct {
	Name       string              `json:"name"`
	Alive      bool                `json:"alive"`
	Breaker    robust.BreakerState `json:"breaker"`
	Probes     uint64              `json:"probes"`
	ProbeFails uint64              `json:"probeFails"`
	Forwarded  uint64              `json:"forwarded"`
	Failures   uint64              `json:"failures"`
	Served     uint64              `json:"served"`
	LastErr    string              `json:"lastErr,omitempty"`
}

// StatsResponse is the gateway's /stats body.
type StatsResponse struct {
	UptimeSec float64 `json:"uptimeSec"`
	Ready     bool    `json:"ready"`
	Draining  bool    `json:"draining"`
	Inflight  int     `json:"inflight"`
	Quorum    int     `json:"quorum"`
	Alive     int     `json:"alive"`
	// Requests counts bodies accepted for routing; Delivered counts
	// responses written to clients. Hedges/HedgeWins, Reroutes and Retries
	// attribute how they got there.
	Requests       uint64 `json:"requests"`
	Delivered      uint64 `json:"delivered"`
	Hedges         uint64 `json:"hedges"`
	HedgeWins      uint64 `json:"hedgeWins"`
	Reroutes       uint64 `json:"reroutes"`
	Retries        uint64 `json:"retries"`
	QuorumDegraded uint64 `json:"quorumDegraded"`
	NoShard        uint64 `json:"noShard"`
	AuthFailures   uint64 `json:"authFailures"`
	BadRequests    uint64 `json:"badRequests"`
	// DoubleDeliveries must stay 0: it is the loss-free hedging invariant.
	// LateResults counts losing attempts that completed (cancelled or not)
	// after their request was already answered — the other side of the
	// same proof.
	DoubleDeliveries uint64 `json:"doubleDeliveries"`
	LateResults      uint64 `json:"lateResults"`
	// Membership is the signed fleet view; the churn counters below
	// attribute how it got there and what moved with it.
	Membership    Membership `json:"membership"`
	Joins         uint64     `json:"joins"`
	Leaves        uint64     `json:"leaves"`
	PeerHints     uint64     `json:"peerHints"`
	HotPushed     uint64     `json:"hotPushed"`
	HotPushErrors uint64     `json:"hotPushErrors"`

	HedgeBudgetMs float64              `json:"hedgeBudgetMs"`
	Shards        []ShardStats         `json:"shards"`
	Breakers      []robust.BreakerStat `json:"breakers"`
}

// StatsSnapshot returns the gateway counters as served by /stats.
func (g *Gateway) StatsSnapshot() StatsResponse {
	alive, quorum := g.aliveCount(), g.quorumNow()
	st := StatsResponse{
		UptimeSec:        time.Since(g.start).Seconds(),
		Ready:            !g.draining.Load() && alive >= quorum && alive > 0,
		Draining:         g.draining.Load(),
		Inflight:         g.inflight.Current(),
		Quorum:           quorum,
		Alive:            alive,
		Requests:         g.requests.Load(),
		Delivered:        g.delivered.Load(),
		Hedges:           g.hedges.Load(),
		HedgeWins:        g.hedgeWins.Load(),
		Reroutes:         g.reroutes.Load(),
		Retries:          g.retries.Load(),
		QuorumDegraded:   g.quorumDegraded.Load(),
		NoShard:          g.noShard.Load(),
		AuthFailures:     g.authFailures.Load(),
		BadRequests:      g.badRequests.Load(),
		DoubleDeliveries: g.doubleDeliveries.Load(),
		LateResults:      g.lateResults.Load(),
		Membership:       g.Membership(),
		Joins:            g.joins.Load(),
		Leaves:           g.leaves.Load(),
		PeerHints:        g.peerHints.Load(),
		HotPushed:        g.hotPushed.Load(),
		HotPushErrors:    g.hotPushErrors.Load(),
		HedgeBudgetMs:    float64(g.hedgeBudget().Microseconds()) / 1000,
		Breakers:         g.breakers.Snapshot(),
	}
	for _, s := range g.members() {
		s.mu.Lock()
		lastErr := s.lastErr
		s.mu.Unlock()
		st.Shards = append(st.Shards, ShardStats{
			Name:       s.name,
			Alive:      s.alive.Load(),
			Breaker:    g.breakers.State(s.name),
			Probes:     s.probes.Load(),
			ProbeFails: s.probeFails.Load(),
			Forwarded:  s.forwarded.Load(),
			Failures:   s.failures.Load(),
			Served:     s.served.Load(),
			LastErr:    lastErr,
		})
	}
	return st
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.StatsSnapshot())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "GET /metrics", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	g.metrics.reg.WriteTo(w)
}

// StartDrain flips the gateway into draining mode. Idempotent.
func (g *Gateway) StartDrain() { g.draining.Store(true) }

// Drain stops admitting, waits for in-flight requests (bounded by ctx),
// stops the prober, and flushes a final stats snapshot through Config.Logf.
func (g *Gateway) Drain(ctx context.Context) error {
	g.StartDrain()
	done := make(chan struct{})
	go func() {
		g.inflight.WaitZero()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("schedgw: drain deadline expired with requests still in flight: %w", ctx.Err())
	}
	g.prober.close()
	if snap, merr := json.Marshal(g.StatsSnapshot()); merr == nil {
		g.cfg.Logf("schedgw: final stats %s", snap)
	}
	return err
}

// Close stops the prober without draining (tests).
func (g *Gateway) Close() { g.prober.close() }
