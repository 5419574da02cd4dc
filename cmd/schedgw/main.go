// Command schedgw runs the cluster gateway: a routing tier that spreads
// /schedule requests across a fleet of schedd shards by consistent-hashing
// each request's canonical graph fingerprint, so the shards' content-
// addressed schedule caches partition naturally — isomorphic graphs always
// land on the same shard's warm cache.
//
// Usage:
//
//	schedgw -addr :8744 -shard 127.0.0.1:8745 -shard 127.0.0.1:8746 -shard 127.0.0.1:8747
//	schedgw -hedge-after 50ms                 # fixed hedge budget (default: adaptive p95)
//	schedgw -tenant-key acme=s3cret           # verify tenant identity at the edge
//
// Robustness is the point of the daemon: every shard's /readyz is probed
// continuously and fed into per-shard circuit breakers; a request whose
// primary shard is slow gets a hedged second attempt at the next shard on
// the ring (first deliverable answer wins, the loser is cancelled);
// connection errors fail over around the ring with bounded full-jitter
// retry; and when the fleet drops below quorum the gateway keeps serving by
// routing to any alive shard. A SIGKILLed shard costs its keyspace segment
// for about one probe interval; when it warm-restarts and answers /readyz,
// the same segment routes back to its replayed warm cache.
//
// Endpoints:
//
//	POST /schedule?...   proxied to the owning shard; same API as schedd
//	GET  /healthz        liveness (200 while the process runs)
//	GET  /readyz         readiness (503 while draining, below quorum, or no shard alive)
//	GET  /stats          JSON counters: routing, hedging, membership, per-shard health
//	GET  /metrics        Prometheus text format (schedgw_* families)
//
// With -admin-key set, live membership (authenticated by X-Schedgw-Admin-Key):
//
//	GET    /admin/shards        signed membership document (epoch, shards, quorum)
//	POST   /admin/shards        join a shard: {"addr": "host:port", "epoch": N}
//	DELETE /admin/shards/{id}   graceful leave; pushes hot cache entries to new owners
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/robust"
	"repro/internal/server"
)

// options collects the daemon's flags.
type options struct {
	addr         string
	shards       multiFlag
	hedgeAfter   time.Duration
	maxRetries   int
	retryBase    time.Duration
	probeEvery   time.Duration
	probeTimeout time.Duration
	drain        time.Duration

	breakerFailures int
	breakerCooldown time.Duration

	tenantKeys multiFlag
	keyFile    string

	adminKey   string
	peerKey    string
	rebalanceK int
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8744", "listen address")
	flag.Var(&o.shards, "shard", "schedd backend address, host:port (repeatable; at least one)")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "fixed hedge budget before a second attempt fires (0 = adaptive p95)")
	flag.IntVar(&o.maxRetries, "max-retries", 0, "full-jitter retry passes after connection errors (0 = default 2, negative disables, at most 16)")
	flag.DurationVar(&o.retryBase, "retry-base", 0, "backoff base for retry passes (0 = 25ms, at most 1m)")
	flag.DurationVar(&o.probeEvery, "probe-every", 0, "/readyz probe interval per shard (0 = 250ms)")
	flag.DurationVar(&o.probeTimeout, "probe-timeout", 0, "per-probe timeout (0 = 1s)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.IntVar(&o.breakerFailures, "breaker-failures", 0, "retryable outcomes before a shard's breaker opens (0 = default)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 0, "initial breaker cooldown before a half-open probe (0 = default)")
	flag.Var(&o.tenantKeys, "tenant-key", "verify this tenant's API key at the edge, e.g. acme=s3cret (repeatable)")
	flag.StringVar(&o.keyFile, "tenant-keys", "", "JSON file of {\"tenant\": \"secret\"} API keys")
	flag.StringVar(&o.adminKey, "admin-key", "", "secret enabling the live-membership admin API (/admin/shards); empty disables it")
	flag.StringVar(&o.peerKey, "peer-key", "", "shared cluster secret for shard cache handoff; must match the shards' -peer-key")
	flag.IntVar(&o.rebalanceK, "rebalance-k", 0, "hottest cache records pushed to new owners on graceful leave (0 = default 32)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "schedgw:", err)
		os.Exit(1)
	}
}

// run builds the gateway, serves until a termination signal, then drains.
func run(o options) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	return serve(o, ln, sig, log.New(os.Stderr, "schedgw: ", log.LstdFlags))
}

// serve runs the gateway on ln until stop delivers, then drains. Split from
// run so tests can drive it with their own listener and stop channel.
func serve(o options, ln net.Listener, stop <-chan os.Signal, logger *log.Logger) error {
	keys, err := server.LoadKeys(o.keyFile, o.tenantKeys)
	if err != nil {
		return err
	}
	g, err := cluster.NewGateway(cluster.Config{
		Shards:       o.shards,
		HedgeAfter:   o.hedgeAfter,
		MaxRetries:   o.maxRetries,
		RetryBase:    o.retryBase,
		ProbeEvery:   o.probeEvery,
		ProbeTimeout: o.probeTimeout,
		Breakers: robust.BreakerPolicy{
			Failures: o.breakerFailures,
			Cooldown: o.breakerCooldown,
		},
		Keys:       keys,
		AdminKey:   o.adminKey,
		PeerKey:    o.peerKey,
		RebalanceK: o.rebalanceK,
		Logf:       logger.Printf,
	})
	if err != nil {
		return err
	}
	g.Start()
	logger.Printf("listening on %s, routing over %d shards (quorum %d)", ln.Addr(), len(o.shards), g.StatsSnapshot().Quorum)
	if len(keys) > 0 {
		logger.Printf("tenant auth at the edge: %d API keys registered", len(keys))
	}

	hs := &http.Server{Handler: g.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case got := <-stop:
		logger.Printf("%s: draining (budget %s)", got, o.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	drainErr := g.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	logger.Printf("drained cleanly")
	return nil
}
