// Command schedd runs the scheduling service: an HTTP daemon that accepts
// dependence graphs in irtext form on POST /schedule and answers with
// verified schedules computed through the resilient engine.
//
// Usage:
//
//	schedd -addr :8745 [-queue 64] [-rate 200] [-burst 400] [-timeout 2s]
//	schedd -store-dir /var/lib/schedd             # crash-safe warm restarts
//	schedd -chaos pass-panic -chaos-seed 7        # resilience-testing mode
//	schedd -debug-addr 127.0.0.1:8746             # net/http/pprof, private port
//
// The daemon is built for overload and partial failure, not just the happy
// path: admission control sheds excess work with 429 + Retry-After, request
// deadlines propagate into the scheduler and cancel doomed work, per-rung
// circuit breakers stop paying for persistently failing schedulers, and
// SIGTERM/SIGINT trigger a graceful drain — in-flight requests finish (up to
// -drain), new work gets 503, and a final stats snapshot is logged before
// exit.
//
// With -store-dir the schedule cache is backed by a crash-safe persistent
// store (internal/store): accepted schedules are mirrored to a CRC-framed
// WAL behind the serving path, and a restarted daemon replays them through
// the legality gate to come up with a warm cache. The store holds what the
// cache holds: every -cache-size appends it snapshots the cache's resident
// entries, least recently used first, so -cache-size alone bounds memory,
// snapshot size and recovery work. /readyz answers 503 "starting" until
// the replay completes; recovery counters appear in /stats under
// engine.Persist.
//
// Endpoints:
//
//	POST /schedule?machine=raw16[&scheduler=convergent][&seed=N][&deadline=500ms][&trace=1]
//	GET  /healthz   liveness  (200 while the process runs, even draining)
//	GET  /readyz    readiness (503 while starting, draining, or queue-full)
//	GET  /stats     JSON counters: engine cache, admission, peer, breakers
//	GET  /metrics   Prometheus text format (servable during drain)
//
// With ?trace=1 the response carries a "trace" section: per-pass preference
// weight deltas, per-rung attempt outcomes, the cache lookup path, and any
// breaker transitions the request observed. With -debug-addr the standard
// net/http/pprof endpoints are served on a second, private listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/robust"
	"repro/internal/server"
)

// options collects the daemon's flags.
type options struct {
	addr            string
	debugAddr       string
	queue           int
	workers         int
	rate            float64
	burst           int
	cacheSize       int
	timeout         time.Duration
	drain           time.Duration
	seed            int64
	chaos           string
	chaosSeed       int64
	stall           time.Duration
	breakerFailures int
	breakerCooldown time.Duration

	storeDir string

	tenantClasses multiFlag // -tenant-class, repeatable
	tenantAssign  multiFlag // -tenant, repeatable
	tenantConfig  string    // -tenant-config JSON file
	defaultClass  string    // -default-class

	shardID    string    // -shard-id
	tenantKeys multiFlag // -tenant-key, repeatable
	keyFile    string    // -tenant-keys JSON file

	peerKey string // -peer-key
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// tenancyFor merges the tenant-QoS flags into one validated config: the
// -tenant-config file first, then repeatable -tenant-class / -tenant flags
// layered on top (a flag class with the name of a file class replaces it).
func tenancyFor(o options) (server.TenantConfig, error) {
	var tc server.TenantConfig
	if o.tenantConfig != "" {
		var err error
		if tc, err = server.LoadTenantConfig(o.tenantConfig); err != nil {
			return tc, err
		}
	}
	for _, spec := range o.tenantClasses {
		c, err := server.ParseClassSpec(spec)
		if err != nil {
			return tc, err
		}
		replaced := false
		for i := range tc.Classes {
			if tc.Classes[i].Name == c.Name {
				tc.Classes[i], replaced = c, true
			}
		}
		if !replaced {
			tc.Classes = append(tc.Classes, c)
		}
	}
	for _, spec := range o.tenantAssign {
		t, cl, err := server.ParseTenantAssignment(spec)
		if err != nil {
			return tc, err
		}
		if tc.Tenants == nil {
			tc.Tenants = make(map[string]string)
		}
		tc.Tenants[t] = cl
	}
	if o.defaultClass != "" {
		tc.DefaultClass = o.defaultClass
	}
	if err := server.ValidateTenancy(tc); err != nil {
		return tc, err
	}
	return tc, nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8745", "listen address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty disables; keep it private)")
	flag.IntVar(&o.queue, "queue", 64, "max admitted-but-unfinished requests; beyond this, shed with 429")
	flag.IntVar(&o.workers, "j", 0, "max concurrently scheduling requests (0 = queue bound)")
	flag.Float64Var(&o.rate, "rate", 0, "token-bucket admission rate per second (0 = unlimited)")
	flag.IntVar(&o.burst, "burst", 0, "token-bucket burst (0 = 2x rate)")
	flag.IntVar(&o.cacheSize, "cache-size", 256, "schedule-cache entries (0 = 256, negative disables memoization)")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Second, "default per-attempt rung budget when the request sets no deadline")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.Int64Var(&o.seed, "seed", 2002, "default noise seed for the convergent scheduler")
	flag.StringVar(&o.chaos, "chaos", "", "inject this fault class into every request's ladder (resilience testing)")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the injected fault")
	flag.DurationVar(&o.stall, "stall", 0, "stall duration for time-based chaos classes")
	flag.IntVar(&o.breakerFailures, "breaker-failures", 0, "consecutive rung failures before its breaker opens (0 = default)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 0, "initial breaker cooldown before a half-open probe (0 = default)")
	flag.Var(&o.tenantClasses, "tenant-class", "define a QoS class, e.g. gold:weight=8,queue=32,rate=200,burst=400,inflight=16 (repeatable)")
	flag.Var(&o.tenantAssign, "tenant", "assign a tenant to a class, e.g. acme=gold (repeatable)")
	flag.StringVar(&o.tenantConfig, "tenant-config", "", "JSON file with {classes, tenants, defaultClass}")
	flag.StringVar(&o.defaultClass, "default-class", "", "class serving unknown tenants and requests without X-Schedd-Tenant")
	flag.StringVar(&o.shardID, "shard-id", "", "name this instance in a schedgw cluster; rides responses as the shard field and X-Schedd-Shard")
	flag.StringVar(&o.peerKey, "peer-key", "", "shared cluster secret enabling the /cache peer-handoff API and peer lookup before compute")
	flag.Var(&o.tenantKeys, "tenant-key", "require this tenant to present its API key, e.g. acme=s3cret (repeatable; any key enables auth)")
	flag.StringVar(&o.keyFile, "tenant-keys", "", "JSON file of {\"tenant\": \"secret\"} API keys")
	flag.StringVar(&o.storeDir, "store-dir", "", "persist the schedule cache in this directory and warm-restart from it")
	chaosList := flag.Bool("chaos-list", false, "list chaos classes and exit")
	flag.Parse()

	if *chaosList {
		fmt.Println(strings.Join(faultinject.Classes(), "\n"))
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// debugMux builds the pprof handler set on a private mux rather than
// blank-importing net/http/pprof, which would mutate http.DefaultServeMux
// for the whole process.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// validateStoreFlags rejects store configurations that could only fail
// later, before the listener is up: a store directory whose parent does not
// exist (a typo, not a fresh deployment), and a store without memoization
// to persist. A second daemon on the same -store-dir is caught at open time
// by the store's lockfile.
func validateStoreFlags(o options) error {
	if o.storeDir == "" {
		return nil
	}
	if o.cacheSize < 0 {
		return errors.New("-store-dir requires memoization; it cannot be combined with a negative -cache-size")
	}
	parent := filepath.Dir(filepath.Clean(o.storeDir))
	if st, err := os.Stat(parent); err != nil || !st.IsDir() {
		return fmt.Errorf("-store-dir parent %s does not exist", parent)
	}
	return nil
}

// run builds the service, serves until a termination signal, then drains.
func run(o options) error {
	if err := validateStoreFlags(o); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	return serve(o, ln, sig, log.New(os.Stderr, "schedd: ", log.LstdFlags))
}

// serve runs the service on ln until stop delivers, then drains. Split from
// run so tests can drive it with their own listener and stop channel.
func serve(o options, ln net.Listener, stop <-chan os.Signal, logger *log.Logger) error {
	tenancy, err := tenancyFor(o)
	if err != nil {
		return err
	}
	keys, err := server.LoadKeys(o.keyFile, o.tenantKeys)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Tenancy:        tenancy,
		ShardID:        o.shardID,
		TenantKeys:     keys,
		PeerKey:        o.peerKey,
		Workers:        o.workers,
		MaxQueue:       o.queue,
		RatePerSec:     o.rate,
		Burst:          o.burst,
		CacheSize:      o.cacheSize,
		DefaultTimeout: o.timeout,
		Seed:           o.seed,
		Breakers: robust.BreakerPolicy{
			Failures: o.breakerFailures,
			Cooldown: o.breakerCooldown,
		},
		StoreDir: o.storeDir,
		Logf:     logger.Printf,
	}
	if o.chaos != "" {
		cfg.Chaos = &faultinject.Chaos{Class: o.chaos, Seed: o.chaosSeed, Stall: o.stall}
		logger.Printf("chaos mode: injecting %s (seed %d) into every ladder", o.chaos, o.chaosSeed)
	}
	s := server.New(cfg)
	// Open before announcing the listener: a held lockfile (another daemon on
	// the same -store-dir) or an unusable directory is a refusal to start,
	// while the recovery replay itself runs behind /readyz.
	if err := s.OpenStore(); err != nil {
		return fmt.Errorf("store %s: %w", o.storeDir, err)
	}
	if o.storeDir != "" {
		// The store compacts every cache-capacity appends; log the capacity
		// the server settled on, not the flag (0 selects the default).
		logger.Printf("persistent store at %s (snapshot every %d appends); recovering",
			o.storeDir, s.StatsSnapshot().Engine.Capacity)
	}

	hs := &http.Server{Handler: s.Handler()}
	logger.Printf("listening on %s (queue %d, rate %.0f/s, timeout %s)",
		ln.Addr(), o.queue, o.rate, o.timeout)
	if len(tenancy.Classes) > 0 {
		for _, c := range tenancy.Classes {
			logger.Printf("tenant class %s: weight=%d queue=%d rate=%.0f/s inflight=%d",
				c.Name, c.Weight, c.MaxQueue, c.RatePerSec, c.MaxInflight)
		}
		def := tenancy.DefaultClass
		if def == "" {
			def = server.DefaultClassName
		}
		logger.Printf("tenancy: %d assigned tenants, default class %q", len(tenancy.Tenants), def)
	}
	if len(keys) > 0 {
		logger.Printf("tenant auth: %d API keys registered; identity claims require %s", len(keys), server.TenantKeyHeader)
	}
	if o.shardID != "" {
		logger.Printf("shard identity: %s", o.shardID)
	}
	if o.peerKey != "" {
		logger.Printf("peer cache handoff enabled (/cache API and peer lookup before compute)")
	}

	// Profiling stays off the service port: pprof handlers leak internals and
	// must never be reachable through whatever exposes /schedule. A failure to
	// bind the debug address is a refusal to start, not a silent degradation.
	var ds *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener %s: %v", o.debugAddr, err)
		}
		ds = &http.Server{Handler: debugMux()}
		logger.Printf("pprof on %s/debug/pprof/ (keep this address private)", dln.Addr())
		go func() {
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug server: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case got := <-stop:
		logger.Printf("%s: draining (budget %s)", got, o.drain)
	}

	// Drain order matters: mark draining first so new requests get 503
	// immediately, wait for in-flight work, then close the listener. The
	// HTTP shutdown gets the same deadline as the drain.
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	drainErr := s.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if ds != nil {
		// A profile capture in progress is not worth blocking the drain for.
		if err := ds.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("debug shutdown: %v", err)
		}
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	logger.Printf("drained cleanly")
	return nil
}
