package cluster

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/robust"
)

// gwMetrics exposes the gateway's counters as Prometheus families under the
// schedgw_* prefix. Like the shard's metrics, the hot path touches only the
// gateway's own atomics; a BeforeScrape hook mirrors them into the registry
// when /metrics is actually read.
type gwMetrics struct {
	reg            *obs.Registry
	requestSeconds *obs.HistogramVec
	breakerFlips   *obs.CounterVec
}

func newGwMetrics(g *Gateway) *gwMetrics {
	reg := obs.NewRegistry()
	m := &gwMetrics{
		reg: reg,
		requestSeconds: reg.HistogramVec("schedgw_request_seconds",
			"End-to-end gateway latency of routed /schedule requests.", nil, "outcome"),
		breakerFlips: reg.CounterVec("schedgw_breaker_transitions_total",
			"Shard circuit-breaker state transitions by destination state.", "to"),
	}

	requests := reg.Counter("schedgw_requests_total", "Bodies accepted for routing.")
	delivered := reg.Counter("schedgw_delivered_total", "Responses written to clients.")
	hedges := reg.Counter("schedgw_hedges_total", "Second attempts launched by the hedge timer.")
	hedgeWins := reg.Counter("schedgw_hedge_wins_total", "Delivered responses won by a hedged attempt.")
	reroutes := reg.Counter("schedgw_reroutes_total", "Candidates skipped or failed over past (dead, breaker-open, or retryable outcome).")
	retries := reg.Counter("schedgw_retries_total", "Full-jitter retry passes after connection errors.")
	degraded := reg.Counter("schedgw_quorum_degraded_total", "Requests routed in below-quorum any-alive-shard mode.")
	noShard := reg.Counter("schedgw_no_shard_total", "Requests refused because no shard was eligible.")
	authFails := reg.Counter("schedgw_auth_failures_total", "Tenant identity claims rejected at the edge.")
	badReqs := reg.Counter("schedgw_bad_requests_total", "Bodies rejected before routing.")
	doubles := reg.Counter("schedgw_double_deliveries_total", "Invariant violations: two results for one request. Must stay 0.")
	late := reg.Counter("schedgw_late_results_total", "Losing attempts discarded after their request was answered.")

	epoch := reg.Gauge("schedgw_membership_epoch", "Current membership epoch; bumps on every admin join/leave.")
	joins := reg.Counter("schedgw_joins_total", "Shards admitted through POST /admin/shards.")
	leaves := reg.Counter("schedgw_leaves_total", "Shards retired through DELETE /admin/shards.")
	peerHints := reg.Counter("schedgw_peer_hints_total", "Forwarded requests stamped with a previous-owner cache hint.")
	hotPushed := reg.Counter("schedgw_hot_pushed_total", "Hot cache records pushed to new owners during graceful leaves.")
	hotPushErrs := reg.Counter("schedgw_hot_push_errors_total", "Hot-record pushes that failed during graceful leaves.")

	alive := reg.Gauge("schedgw_shards_alive", "Shards whose last /readyz probe succeeded.")
	quorum := reg.Gauge("schedgw_quorum", "Current ring-routing quorum (a majority of members, recomputed on membership change).")
	inflight := reg.Gauge("schedgw_inflight_requests", "Requests currently being routed.")
	draining := reg.Gauge("schedgw_draining", "1 while the gateway refuses new work.")
	budget := reg.Gauge("schedgw_hedge_budget_seconds", "Current hedge budget (fixed or adaptive p95).")

	shardAlive := reg.GaugeVec("schedgw_shard_alive", "Per-shard /readyz verdict.", "shard")
	shardForwarded := reg.CounterVec("schedgw_shard_forwarded_total", "Attempts sent to each shard.", "shard")
	shardFailures := reg.CounterVec("schedgw_shard_failures_total", "Retryable attempt outcomes per shard.", "shard")
	shardServed := reg.CounterVec("schedgw_shard_served_total", "Delivered responses per shard.", "shard")
	shardProbeFails := reg.CounterVec("schedgw_shard_probe_failures_total", "Failed /readyz probes per shard.", "shard")

	// The per-shard rows describe shown, the fleet the last scrape read.
	// A member of it that the current fleet no longer holds as the same
	// shard (it left, or left and rejoined as a new shard whose counters
	// restart at 0) has its rows deleted. rowsMu orders the fleet loads of
	// concurrent scrapes, so an older fleet's rows can never be written
	// after a newer one's deletes.
	var rowsMu sync.Mutex
	var shown *fleet
	reg.BeforeScrape(func() {
		requests.Set(float64(g.requests.Load()))
		delivered.Set(float64(g.delivered.Load()))
		hedges.Set(float64(g.hedges.Load()))
		hedgeWins.Set(float64(g.hedgeWins.Load()))
		reroutes.Set(float64(g.reroutes.Load()))
		retries.Set(float64(g.retries.Load()))
		degraded.Set(float64(g.quorumDegraded.Load()))
		noShard.Set(float64(g.noShard.Load()))
		authFails.Set(float64(g.authFailures.Load()))
		badReqs.Set(float64(g.badRequests.Load()))
		doubles.Set(float64(g.doubleDeliveries.Load()))
		late.Set(float64(g.lateResults.Load()))

		rowsMu.Lock()
		defer rowsMu.Unlock()
		f := g.fleet.Load()
		epoch.Set(float64(f.epoch))
		joins.Set(float64(g.joins.Load()))
		leaves.Set(float64(g.leaves.Load()))
		peerHints.Set(float64(g.peerHints.Load()))
		hotPushed.Set(float64(g.hotPushed.Load()))
		hotPushErrs.Set(float64(g.hotPushErrors.Load()))

		alive.Set(float64(f.alive()))
		quorum.Set(float64(f.quorum()))
		inflight.Set(float64(g.inflight.Current()))
		if g.draining.Load() {
			draining.Set(1)
		} else {
			draining.Set(0)
		}
		budget.Set(g.hedgeBudget().Seconds())

		if shown != nil {
			for _, s := range shown.members {
				if f.byName[s.name] != s {
					shardAlive.Delete(s.name)
					shardForwarded.Delete(s.name)
					shardFailures.Delete(s.name)
					shardServed.Delete(s.name)
					shardProbeFails.Delete(s.name)
				}
			}
		}
		shown = f
		for _, s := range f.members {
			if s.alive.Load() {
				shardAlive.With(s.name).Set(1)
			} else {
				shardAlive.With(s.name).Set(0)
			}
			shardForwarded.With(s.name).Set(float64(s.forwarded.Load()))
			shardFailures.With(s.name).Set(float64(s.failures.Load()))
			shardServed.With(s.name).Set(float64(s.served.Load()))
			shardProbeFails.With(s.name).Set(float64(s.probeFails.Load()))
		}
	})
	return m
}

func (m *gwMetrics) observeBreaker(key string, from, to robust.BreakerState) {
	m.breakerFlips.With(string(to)).Inc()
}
