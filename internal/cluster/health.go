package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/robust"
)

// shard is the gateway's live view of one schedd backend.
type shard struct {
	name string // display / metric-label name (host:port)
	base string // URL prefix, scheme included

	// alive is the last /readyz probe verdict. A dead shard is skipped at
	// candidate-selection time; the breaker handles the finer-grained
	// request-failure signal in between probes.
	alive atomic.Bool

	probes     atomic.Uint64
	probeFails atomic.Uint64
	forwarded  atomic.Uint64 // attempts sent (primary + hedges + retries)
	failures   atomic.Uint64 // attempts that came back retryable (conn error, 502/503)
	served     atomic.Uint64 // attempts whose response was delivered to a client

	mu        sync.Mutex
	lastErr   string
	lastProbe time.Time
}

func (s *shard) setProbe(err error, at time.Time) {
	s.probes.Add(1)
	ok := err == nil
	s.alive.Store(ok)
	s.mu.Lock()
	s.lastProbe = at
	if err != nil {
		s.probeFails.Add(1)
		s.lastErr = err.Error()
	} else {
		s.lastErr = ""
	}
	s.mu.Unlock()
}

// prober polls every shard's /readyz on a fixed interval and feeds the
// verdicts into the shard's alive flag and the per-shard circuit breaker.
//
// The division of labor with the breaker: the probe decides *liveness*
// (is the shard up, recovered, done replaying its store behind /readyz),
// while request outcomes decide *health under load*. Probe failures count
// toward tripping the breaker like request failures do; probe successes
// close a non-closed breaker only through the breaker's own half-open gate
// (Allow → Record), so the /readyz poll is exactly the half-open probing
// loop — a recovered shard re-enters the ring within one probe interval of
// its cooldown expiring, and a shard that answers /readyz but fails real
// requests stays tripped.
type prober struct {
	fleet    *atomic.Pointer[fleet] // the gateway's membership; each sweep probes its members
	breakers *robust.BreakerSet
	client   *http.Client
	every    time.Duration
	stop     chan struct{}
	done     chan struct{}
}

func newProber(fleet *atomic.Pointer[fleet], breakers *robust.BreakerSet, client *http.Client, every time.Duration) *prober {
	return &prober{
		fleet:    fleet,
		breakers: breakers,
		client:   client,
		every:    every,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// start launches the probe loop; probeAll runs once synchronously first so
// the gateway never serves from a wholly unknown fleet.
func (p *prober) start() {
	p.probeAll()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

func (p *prober) close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// probeAll probes every member of the current fleet concurrently; one stuck
// shard must not delay the verdict on the others. A shard that leaves during
// the sweep may take one last probe, which no routing decision reads.
func (p *prober) probeAll() {
	var wg sync.WaitGroup
	for _, s := range p.fleet.Load().members {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			p.probeOne(s)
		}(s)
	}
	wg.Wait()
}

func (p *prober) probeOne(s *shard) {
	err := p.readyz(s)
	s.setProbe(err, time.Now())
	switch {
	case err != nil:
		// A failed probe is evidence like a failed request: it counts toward
		// the trip threshold, or re-opens a half-open breaker with a longer
		// cooldown. Record on an open breaker is a no-op by design.
		p.breakers.Record(s.name, false)
	case p.breakers.State(s.name) != robust.BreakerClosed:
		// Ready again after a trip: close only through the half-open gate so
		// the cooldown is respected and at most one probe wins the slot.
		if p.breakers.Allow(s.name) {
			p.breakers.Record(s.name, true)
		}
	}
}

// readyz asks one shard whether it would accept work right now. Anything but
// a 200 — starting (store replay), draining, queue-full, unreachable — means
// the router should send work elsewhere.
func (p *prober) readyz(s *shard) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &notReadyError{code: resp.StatusCode}
	}
	return nil
}

// notReadyError is a non-200 /readyz verdict.
type notReadyError struct{ code int }

func (e *notReadyError) Error() string {
	switch e.code {
	case http.StatusServiceUnavailable:
		return "readyz: 503 (starting, draining, or queue full)"
	default:
		return "readyz: status " + http.StatusText(e.code)
	}
}
