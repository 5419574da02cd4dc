// Package server is the hardened scheduling service behind cmd/schedd: an
// HTTP/JSON daemon that accepts dependence-graph units in irtext (.ddg) form
// and returns verified schedules computed by the batch engine
// (internal/engine) over the resilient driver (internal/robust).
//
// The robustness layer is the point of the package:
//
//   - Admission control: a token bucket smooths arrivals and a bounded queue
//     caps admitted-but-unfinished work; anything beyond either bound is shed
//     with 429 + Retry-After, so overload degrades instead of collapsing.
//   - Deadline propagation: the request context (plus an optional per-request
//     deadline) travels end-to-end — queued requests stop waiting, in-flight
//     ladder rungs are abandoned, and singleflight waiters detach — and an
//     already-expired deadline is rejected before any scheduler runs.
//   - Per-rung circuit breakers: each ladder rung is guarded per machine
//     fingerprint (robust.BreakerSet), so a rung persistently failing for a
//     machine shape is skipped without paying its time budget each request.
//   - Graceful drain: StartDrain stops admitting new work (503), Drain waits
//     for in-flight requests up to a deadline, and the final stats snapshot
//     is flushed through Config.Logf.
//   - Panic containment: a recovery middleware converts any handler crash
//     into a structured JSON error, so no 500 is ever a raw panic.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/store"
)

// MaxBodyBytes caps every request body the service reads: /schedule and
// the peer /cache paths here, and /schedule at the schedgw gateway, so the
// gateway never accepts a body a shard would refuse.
const MaxBodyBytes = 1 << 20

// Config configures a Server. The zero value of every field selects a
// sensible production default.
type Config struct {
	// Workers caps concurrently scheduling requests. Default GOMAXPROCS
	// (via engine semantics: 0 lets newAdmission clamp to MaxQueue).
	Workers int
	// MaxQueue caps admitted-but-unfinished requests (waiting + running).
	// Default 64.
	MaxQueue int
	// RatePerSec is the token-bucket refill rate; 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket size. Default 2×RatePerSec (min 1).
	Burst int
	// CacheSize is the engine's schedule-cache bound. Default 256; negative
	// disables memoization.
	CacheSize int
	// DefaultTimeout is the per-attempt rung budget when the request does
	// not set one. Default 2s.
	DefaultTimeout time.Duration
	// Tenancy configures multi-tenant QoS: priority classes, tenant->class
	// assignments, and the default class. The zero value runs a single
	// default class with the server-wide bounds — exactly the pre-tenancy
	// behavior — and requests without an X-Schedd-Tenant header always
	// land there under the anonymous identity.
	Tenancy TenantConfig
	// Breakers overrides the per-rung breaker policy. Zero means defaults.
	Breakers robust.BreakerPolicy
	// Chaos, when non-nil, injects the configured fault class into every
	// request's ladder — the resilience-testing mode behind schedd -chaos.
	Chaos *faultinject.Chaos
	// StoreDir, when non-empty, backs the engine's schedule cache with the
	// crash-safe persistent store (internal/store) rooted there. The server
	// reports not-ready on /readyz until the store's recovery replay has
	// completed (see OpenStore).
	StoreDir string
	// StoreFS overrides the store's filesystem seam (fault injection); nil
	// means the real filesystem.
	StoreFS store.FS
	// StoreNoFsync skips fsyncs (crash-unsafe; tests and benchmarks).
	StoreNoFsync bool
	// ShardID, when non-empty, names this instance in a schedgw cluster: it
	// rides every /schedule response as the "shard" field and the
	// X-Schedd-Shard header, and appears in /stats, so clients and the
	// gateway can attribute every answer to the shard that computed it.
	ShardID string
	// TenantKeys, when non-empty, requires requests that claim a tenant
	// identity to present the tenant's shared secret in X-Schedd-Key
	// (rejected with 401 otherwise). Empty means identity claims are
	// trusted, the pre-auth behavior.
	TenantKeys KeySet
	// PeerKey, when non-empty, enables the shard-to-shard cache handoff
	// surface (see peer.go): the /cache endpoints accept calls presenting
	// this shared cluster secret, and signed X-Schedd-Peer hints from the
	// gateway trigger peer cache lookup before compute. Empty disables the
	// whole peer surface — the pre-cluster-membership behavior.
	PeerKey string
	// Seed is the default noise seed when the request does not set one.
	Seed int64
	// Logf receives operational log lines (drain progress, flushed stats).
	// Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the scheduling service. Create one with New; its Handler is safe
// for concurrent use.
type Server struct {
	cfg      Config
	engine   *engine.Engine
	breakers *robust.BreakerSet
	adm      *admission
	mux      *http.ServeMux
	metrics  *metrics
	start    time.Time

	draining atomic.Bool
	inflight InflightGauge
	panics   atomic.Uint64

	// peer counts the cache-handoff surface (peer.go).
	peer peerCounters

	// testHookPostAdmit, when non-nil, runs right after admission grants a
	// queue slot — the seam the release-exactly-once panic regression test
	// uses to crash the handler at the worst moment.
	testHookPostAdmit func()

	// ready gates /readyz on startup completion: a server with no store is
	// ready immediately, one with a store only after recovery replay ends.
	// recoveryDone closes when the recovery goroutine finishes (or at New
	// when there is nothing to recover) so Drain can wait for it.
	ready        atomic.Bool
	recoveryDone chan struct{}

	mu       sync.Mutex
	machines map[string]machineEntry // name -> model + breaker scope
}

type machineEntry struct {
	model *machine.Model
	scope string
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.MaxQueue
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(math.Max(1, 2*cfg.RatePerSec))
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:          cfg,
		engine:       engine.New(0, cfg.CacheSize),
		breakers:     robust.NewBreakerSet(cfg.Breakers),
		adm:          newAdmission(cfg.Tenancy, cfg.MaxQueue, cfg.Workers, cfg.RatePerSec, cfg.Burst, time.Now),
		mux:          http.NewServeMux(),
		start:        time.Now(),
		machines:     make(map[string]machineEntry),
		recoveryDone: make(chan struct{}),
	}
	if cfg.StoreDir == "" {
		// Nothing to replay: ready the moment the listener is up.
		s.ready.Store(true)
		close(s.recoveryDone)
	}
	s.metrics = newMetrics(s)
	s.breakers.SetObserver(s.metrics.observeBreaker)
	s.mux.HandleFunc("/schedule", s.handleSchedule)
	s.mux.HandleFunc("/cache/", s.handleCache)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler, wrapped in the panic-recovery
// middleware.
func (s *Server) Handler() http.Handler { return s.recoverer(s.mux) }

// OpenStore attaches the persistent schedule store configured by
// Config.StoreDir and starts recovery replay in the background. Fatal
// problems — an unreachable directory, another live daemon holding the
// lockfile — surface synchronously so the caller can refuse to start;
// replay itself (possibly thousands of records through the legality gate)
// runs async, with /readyz answering 503 until it completes. No-op when no
// store is configured.
func (s *Server) OpenStore() error {
	if s.cfg.StoreDir == "" {
		return nil
	}
	err := s.engine.AttachStore(engine.PersistConfig{
		Dir:     s.cfg.StoreDir,
		FS:      s.cfg.StoreFS,
		NoFsync: s.cfg.StoreNoFsync,
		Logf:    s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	go func() {
		defer close(s.recoveryDone)
		rs, rerr := s.engine.RecoverStore()
		if rerr != nil {
			// A failed replay is not fatal: the store re-opened a fresh WAL
			// and whatever passed the gate is already serving warm.
			s.cfg.Logf("schedd: store recovery error (serving with partial warm cache): %v", rerr)
		}
		s.cfg.Logf("schedd: store recovery: replayed=%d droppedCorrupt=%d droppedIllegal=%d droppedSkewed=%d truncatedTails=%d skippedFiles=%d snapshotGen=%d",
			rs.Replayed, rs.DroppedCorrupt, rs.DroppedIllegal, rs.DroppedSkewed, rs.TruncatedTails, rs.SkippedFiles, rs.SnapshotGen)
		s.ready.Store(true)
	}()
	return nil
}

// InflightGauge counts requests currently inside a handler so a drain can
// wait for them; schedd and the schedgw gateway both use it. sync.WaitGroup
// is the wrong tool here: it forbids Add concurrent with Wait once the
// counter can touch zero, and that is exactly our traffic pattern —
// requests keep arriving during a drain just to be told 503. The zero value
// is ready to use.
type InflightGauge struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

// Enter counts one request in.
func (g *InflightGauge) Enter() {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	g.n++
	g.mu.Unlock()
}

// Exit counts one request out.
func (g *InflightGauge) Exit() {
	g.mu.Lock()
	g.n--
	if g.n == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Current returns the in-flight request count — the drain-progress gauge.
func (g *InflightGauge) Current() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// WaitZero blocks until no request is in flight. A request entering after
// the gauge hits zero is the drain-flag check's problem, not ours.
func (g *InflightGauge) WaitZero() {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	for g.n > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// errorJSON is the structured error body every non-200 carries.
type errorJSON struct {
	// Kind classifies the failure: bad-request, unauthorized, shed,
	// draining, deadline, sched-failed, panic.
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Cause splits shed errors by which admission bound rejected the
	// request (rate, tenant-rate, quota, queue); Tenant and Class
	// attribute the shed to the identity that hit the bound.
	Cause  string `json:"cause,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Rung and Stage carry the resilient driver's failure site for
	// sched-failed and deadline errors.
	Rung  string `json:"rung,omitempty"`
	Stage string `json:"stage,omitempty"`
	// Attempts is the driver's per-rung report, when one exists.
	Attempts []attemptJSON `json:"attempts,omitempty"`
}

type errorBody struct {
	Error errorJSON `json:"error"`
}

// attemptJSON is one ladder attempt in a response.
type attemptJSON struct {
	Rung  string  `json:"rung"`
	Ms    float64 `json:"ms"`
	Stage string  `json:"stage,omitempty"`
	Error string  `json:"error,omitempty"`
}

// placementJSON is one instruction's placement in a 200 body.
type placementJSON struct {
	Cluster int `json:"cluster"`
	FU      int `json:"fu"`
	Start   int `json:"start"`
	Latency int `json:"latency"`
}

// commJSON is one inter-cluster value move in a 200 body.
type commJSON struct {
	Value  int `json:"value"`
	From   int `json:"from"`
	To     int `json:"to"`
	Depart int `json:"depart"`
	Arrive int `json:"arrive"`
}

// ShardHeader carries Config.ShardID on every /schedule response, so the
// gateway and clients can attribute an answer without parsing the body.
const ShardHeader = "X-Schedd-Shard"

// scheduleResponse is the 200 body: enough to reconstruct and re-validate
// the full schedule client-side (placements are indexed by instruction id).
type scheduleResponse struct {
	Graph      string          `json:"graph"`
	Machine    string          `json:"machine"`
	Shard      string          `json:"shard,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	Class      string          `json:"class,omitempty"`
	Served     string          `json:"served"`
	Cycles     int             `json:"cycles"`
	Comms      int             `json:"comms"`
	Placements []placementJSON `json:"placements"`
	CommList   []commJSON      `json:"commList,omitempty"`
	CacheHit   bool            `json:"cacheHit,omitempty"`
	Shared     bool            `json:"shared,omitempty"`
	Degraded   bool            `json:"degraded,omitempty"`
	// PeerHit says the serving cache entry was fetched from the previous
	// ring owner (through the legality gate) rather than computed or found
	// locally; it always rides with CacheHit.
	PeerHit   bool          `json:"peerHit,omitempty"`
	Attempts  []attemptJSON `json:"attempts,omitempty"`
	ElapsedMs float64       `json:"elapsedMs"`
	// Trace is the request's full observability record, present when the
	// request asked for ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// StatsResponse is the /stats body and the snapshot flushed on drain.
type StatsResponse struct {
	UptimeSec float64              `json:"uptimeSec"`
	Shard     string               `json:"shard,omitempty"`
	Ready     bool                 `json:"ready"`
	Draining  bool                 `json:"draining"`
	Inflight  int                  `json:"inflight"`
	Panics    uint64               `json:"panics"`
	Engine    engine.Stats         `json:"engine"`
	Admission AdmissionStats       `json:"admission"`
	Peer      PeerStats            `json:"peer"`
	Breakers  []robust.BreakerStat `json:"breakers"`
}

// StatsSnapshot returns the service counters as served by /stats.
func (s *Server) StatsSnapshot() StatsResponse {
	return StatsResponse{
		UptimeSec: time.Since(s.start).Seconds(),
		Shard:     s.cfg.ShardID,
		Ready:     s.ready.Load(),
		Draining:  s.draining.Load(),
		Inflight:  s.inflight.Current(),
		Panics:    s.panics.Load(),
		Engine:    s.engine.Stats(),
		Admission: s.adm.stats(),
		Peer:      s.peer.snapshot(s.cfg.PeerKey != ""),
		Breakers:  s.breakers.Snapshot(),
	}
}

// writeJSON writes v with status code; encoding problems fall back to a
// plain 500 (they indicate a server bug, not a request problem).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, e errorJSON) {
	writeJSON(w, code, errorBody{Error: e})
}

// recoverer converts a panicking handler into a structured 500 so that no
// response is ever a raw panic trace. Panics below the handler (inside a
// scheduler) are already contained by internal/robust; this is the last
// line of defense for the service's own code.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.cfg.Logf("schedd: panic serving %s: %v\n%s", r.URL.Path, v, debug.Stack())
				if !tw.wrote {
					writeError(tw, http.StatusInternalServerError, errorJSON{
						Kind:    "panic",
						Message: fmt.Sprintf("internal panic: %v", v),
					})
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter remembers whether a response has started, so the recovery
// middleware knows if it may still write a structured error.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up, even while draining.
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		// Startup incomplete — today that means store recovery replay is
		// still running. Readiness is the general gate: any future slow
		// startup work holds it the same way.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "starting", http.StatusServiceUnavailable)
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.adm.depth() >= s.adm.capacity():
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ready")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// machineFor resolves and caches a machine model and its breaker scope (the
// fingerprint, hex-encoded) by name.
func (s *Server) machineFor(name string) (machineEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.machines[name]; ok {
		return ent, nil
	}
	m, err := machine.Named(name)
	if err != nil {
		return machineEntry{}, err
	}
	fp := m.Fingerprint()
	ent := machineEntry{model: m, scope: fmt.Sprintf("%x", fp[:8])}
	s.machines[name] = ent
	return ent, nil
}

// scheduleRequest is everything parsed out of one /schedule call.
type scheduleRequest struct {
	mach     machineEntry
	tenant   string // accounting identity (anonymous when no header)
	class    string // the tenant's priority class
	ladder   []robust.Rung
	ladderID string // the ladder's cache identity
	seed     int64
	verify   bool
	timeout  time.Duration // per-attempt rung budget
	deadline time.Duration // whole-request budget (0 = client's own)
	trace    bool          // attach the observability trace to the response
}

// parseTenant extracts and validates the request's tenant identity from the
// X-Schedd-Tenant header (query ?tenant= as a fallback for clients that
// cannot set headers). Absence is fine — the anonymous identity in the
// default class — but a present, malformed identity is a 400: admission
// accounting must never be attributed to a garbage name.
func parseTenant(r *http.Request) (string, error) {
	tenant := r.Header.Get("X-Schedd-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	if tenant == "" {
		return "", nil
	}
	if !ValidTenantName(tenant) {
		return "", fmt.Errorf("bad tenant %.80q: want 1-%d chars of [A-Za-z0-9._-]", tenant, maxTenantNameLen)
	}
	return tenant, nil
}

// parseRequest validates the query parameters of a /schedule call and
// resolves its ladder, so every malformed request is a 400 before it waits
// for a worker.
func (s *Server) parseRequest(r *http.Request) (scheduleRequest, error) {
	q := r.URL.Query()
	req := scheduleRequest{
		seed:    s.cfg.Seed,
		verify:  true,
		timeout: s.cfg.DefaultTimeout,
	}
	scheduler, fallback := "convergent", true
	name := q.Get("machine")
	if name == "" {
		name = "raw16"
	}
	ent, err := s.machineFor(name)
	if err != nil {
		return req, err
	}
	req.mach = ent
	if v := q.Get("scheduler"); v != "" {
		scheduler = v
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed %q: %w", v, err)
		}
		req.seed = seed
	}
	parseBool := func(key string, into *bool) error {
		if v := q.Get(key); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("bad %s %q: %w", key, v, err)
			}
			*into = b
		}
		return nil
	}
	if err := parseBool("verify", &req.verify); err != nil {
		return req, err
	}
	if err := parseBool("fallback", &fallback); err != nil {
		return req, err
	}
	if err := parseBool("trace", &req.trace); err != nil {
		return req, err
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return req, fmt.Errorf("bad timeout %q", v)
		}
		req.timeout = d
	}
	deadline := q.Get("deadline")
	if deadline == "" {
		deadline = r.Header.Get("X-Schedd-Deadline")
	}
	if deadline != "" {
		d, err := time.ParseDuration(deadline)
		if err != nil || d <= 0 {
			return req, fmt.Errorf("bad deadline %q", deadline)
		}
		req.deadline = d
	}
	req.ladder, req.ladderID, err = s.ladderFor(req.mach.model, scheduler, fallback, req.seed)
	return req, err
}

// ladderFor builds the request's ladder and its cache identity with
// robust.Select. Under Config.Chaos every request gets the chaos-poisoned
// default ladder — the resilience mode.
func (s *Server) ladderFor(m *machine.Model, scheduler string, fallback bool, seed int64) ([]robust.Rung, string, error) {
	if s.cfg.Chaos != nil {
		return s.cfg.Chaos.Ladder(m, seed)
	}
	return robust.Select(m, scheduler, fallback, seed)
}

// jobFor is the engine job serving a parsed request for graph g.
func (s *Server) jobFor(req scheduleRequest, g *ir.Graph, tr *obs.Trace) engine.Job {
	return engine.Job{
		ID:      g.Name,
		Graph:   g,
		Machine: req.mach.model,
		Opts: robust.Options{
			Timeout:      req.timeout,
			Verify:       req.verify,
			Ladder:       req.ladder,
			Seed:         req.seed,
			Breakers:     s.breakers,
			BreakerScope: req.mach.scope,
		},
		LadderID: req.ladderID,
		Trace:    tr,
	}
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errorJSON{
			Kind: "bad-request", Message: "POST a .ddg body to /schedule",
		})
		return
	}
	if s.cfg.ShardID != "" {
		w.Header().Set(ShardHeader, s.cfg.ShardID)
	}
	// Count ourselves in-flight before re-checking the drain flag: either
	// the drain sees us and waits, or we see the drain and bail.
	s.inflight.Enter()
	defer s.inflight.Exit()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errorJSON{
			Kind: "draining", Message: "server is draining; retry against another instance",
		})
		return
	}

	// Tenant identity first: admission attributes every decision to it, so
	// a malformed identity is a 400 before any bound is charged.
	tenant, err := parseTenant(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: err.Error()})
		return
	}
	// Identity proof next: with keys configured, a claimed tenant must
	// present its shared secret before admission charges anything to it.
	if err := s.cfg.TenantKeys.Verify(tenant, tenantKeyFrom(r)); err != nil {
		writeError(w, http.StatusUnauthorized, errorJSON{
			Kind: "unauthorized", Message: err.Error(), Tenant: tenant,
		})
		return
	}

	// Admission: global rate limit, then the tenant's own bucket, quota,
	// and class queue. Shed explicitly, attributed to tenant and cause.
	grant, cause, retry := s.adm.admit(tenant)
	if grant == nil {
		shownTenant := tenant
		if shownTenant == "" {
			shownTenant = AnonymousTenant
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
		s.metrics.observeShed(shownTenant, cause)
		writeError(w, http.StatusTooManyRequests, errorJSON{
			Kind:    "shed",
			Message: fmt.Sprintf("overloaded, request shed by admission control (%s, tenant %s)", cause, shownTenant),
			Cause:   cause,
			Tenant:  shownTenant,
		})
		return
	}
	// The grant is released by this defer exactly once — admitGrant.release
	// is idempotent — including when the handler panics and the recovery
	// middleware takes over: the deferred release runs during unwinding,
	// before the middleware writes the 500.
	defer grant.release()
	if s.testHookPostAdmit != nil {
		s.testHookPostAdmit()
	}
	t0 := time.Now()

	req, err := s.parseRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: err.Error()})
		return
	}
	req.tenant, req.class = grant.Tenant(), grant.Class()
	g, err := irtext.Parse(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: err.Error()})
		return
	}
	if g.Name == "" {
		g.Name = "anonymous"
	}

	// Deadline propagation: the request context already ends when the
	// client disconnects; an explicit deadline tightens it. Everything
	// below — queue wait, ladder rungs, singleflight waits — sees this ctx.
	ctx := r.Context()
	if req.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.deadline)
		defer cancel()
	}

	if !s.adm.acquireWorker(grant, ctx.Done()) {
		s.adm.countTimeout(grant)
		writeError(w, http.StatusGatewayTimeout, errorJSON{
			Kind:    "deadline",
			Message: fmt.Sprintf("deadline expired waiting for a worker slot: %v", ctx.Err()),
			Tenant:  req.tenant,
			Class:   req.class,
		})
		return
	}
	wait := time.Since(t0)
	defer s.adm.releaseWorker()

	var tr *obs.Trace
	if req.trace {
		tr = obs.NewTrace(g.Name, req.mach.model.Name)
		tr.SetTenant(req.tenant, req.class)
		s.metrics.tracedRequests.Inc()
	}
	job := s.jobFor(req, g, tr)
	// Peer cache lookup before compute: a gateway-signed hint names the
	// previous ring owner of this request's keyspace segment; on a local
	// miss the record is fetched from it and imported through the legality
	// gate, so the engine call below serves it as a warm hit.
	peerHit := false
	if peerBase, sigOK := s.peerHint(r); !sigOK {
		s.peer.badHints.Add(1)
	} else if peerBase != "" {
		peerHit = s.peerFetch(ctx, peerBase, job)
	}
	res := s.engine.Schedule(ctx, job)
	total := time.Since(t0)
	s.adm.observe(grant, wait, total, res.Err != nil)
	s.metrics.observeRequest(req.tenant, req.class, total.Seconds(), res.Err != nil)
	s.metrics.observeReport(res.Report)

	if res.Err != nil {
		s.writeScheduleError(w, ctx, grant, res)
		return
	}
	resp := buildResponse(req.mach.model.Name, g.Name, res, total)
	resp.Shard = s.cfg.ShardID
	resp.PeerHit = peerHit
	resp.Tenant, resp.Class = req.tenant, req.class
	resp.Trace = tr.Snapshot()
	writeJSON(w, http.StatusOK, resp)
}

// writeScheduleError maps an engine failure onto a status code and a
// structured body.
func (s *Server) writeScheduleError(w http.ResponseWriter, ctx context.Context, grant *admitGrant, res engine.Result) {
	e := errorJSON{Kind: "sched-failed", Message: res.Err.Error(),
		Tenant: grant.Tenant(), Class: grant.Class()}
	var serr *robust.SchedError
	if errors.As(res.Err, &serr) {
		e.Rung, e.Stage = serr.Rung, string(serr.Stage)
	}
	if res.Report != nil {
		e.Attempts = attemptsJSON(res.Report)
	}
	code := http.StatusInternalServerError
	if ctx.Err() != nil || (serr != nil && serr.Stage == robust.StageDeadline) {
		s.adm.countTimeout(grant)
		e.Kind = "deadline"
		code = http.StatusGatewayTimeout
	}
	writeError(w, code, e)
}

func attemptsJSON(rep *robust.Report) []attemptJSON {
	out := make([]attemptJSON, 0, len(rep.Attempts))
	for _, a := range rep.Attempts {
		aj := attemptJSON{Rung: a.Rung, Ms: float64(a.Duration.Microseconds()) / 1000}
		if a.Err != nil {
			aj.Stage = string(a.Err.Stage)
			aj.Error = a.Err.Error()
		}
		out = append(out, aj)
	}
	return out
}

func buildResponse(machineName, graphName string, res engine.Result, total time.Duration) scheduleResponse {
	resp := scheduleResponse{
		Graph:     graphName,
		Machine:   machineName,
		Served:    res.Served,
		Cycles:    res.Schedule.Length(),
		Comms:     res.Schedule.CommCount(),
		CacheHit:  res.CacheHit,
		Shared:    res.Shared,
		ElapsedMs: float64(total.Microseconds()) / 1000,
	}
	resp.Placements = make([]placementJSON, len(res.Schedule.Placements))
	for i, p := range res.Schedule.Placements {
		resp.Placements[i] = placementJSON{Cluster: p.Cluster, FU: p.FU, Start: p.Start, Latency: p.Latency}
	}
	for _, c := range res.Schedule.Comms {
		resp.CommList = append(resp.CommList, commJSON{Value: c.Value, From: c.From, To: c.To, Depart: c.Depart, Arrive: c.Arrive})
	}
	if res.Report != nil {
		resp.Attempts = attemptsJSON(res.Report)
		resp.Degraded = len(res.Report.Failed()) > 0
	}
	return resp
}

// StartDrain flips the server into draining mode: /readyz goes 503 and new
// /schedule requests are rejected. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain performs the graceful-shutdown sequence: stop admitting, wait for
// every in-flight request to finish (bounded by ctx), flush and close the
// persistent store so computed schedules survive the restart, and flush a
// final stats snapshot through Config.Logf. It returns ctx's error if
// in-flight work outlived the drain deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.WaitZero()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("schedd: drain deadline expired with requests still in flight: %w", ctx.Err())
	}
	if s.cfg.StoreDir != "" {
		// A drain during startup must not close the store out from under the
		// recovery replay; wait for it (bounded by the drain deadline).
		select {
		case <-s.recoveryDone:
			if ferr := s.engine.FlushStore(ctx); ferr != nil {
				s.cfg.Logf("schedd: store flush on drain: %v", ferr)
			}
			if cerr := s.engine.CloseStore(); cerr != nil {
				s.cfg.Logf("schedd: store close on drain: %v", cerr)
			} else {
				s.cfg.Logf("schedd: store flushed and closed")
			}
		case <-ctx.Done():
			s.cfg.Logf("schedd: drain deadline expired before store recovery finished; store left unflushed")
		}
	}
	snap, merr := json.Marshal(s.StatsSnapshot())
	if merr == nil {
		s.cfg.Logf("schedd: final stats %s", snap)
	}
	return err
}

// Crash abandons the persistent store without flushing or syncing — the
// in-process stand-in for SIGKILL in shard-failure drills (the cluster chaos
// suite). Nothing else is torn down: callers close the listener themselves,
// and entries already handed to the OS survive exactly as they would a real
// kill. Never call this on a server you intend to keep.
func (s *Server) Crash() { s.engine.CrashStore() }
