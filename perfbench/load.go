package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
)

// clients is the width of the closed loop: each client goroutine sends its
// next request only after the previous reply, as schedd's callers (a batch
// client, a compiler driver) do. Two matches the 2-vCPU machine the bounds
// in BENCHMARK.json were set on.
const clients = 2

// outcome is one request as its client saw it.
type outcome struct {
	index    int
	lat      time.Duration
	ok       bool // a 200 whose schedule revalidated
	wrong    bool // a 200 whose schedule did not
	cycles   int
	attempts int
	rungMs   float64
	degraded bool
	cacheHit bool
	err      error
}

// phase is one closed-loop run over consecutive request indices.
type phase struct {
	outcomes []outcome // in request-index order
	next     int       // first request index the next phase may use
	elapsed  time.Duration
	cpu      time.Duration
	steal    uint64
	mallocs  uint64 // bytes allocated
	gcs      uint32
}

// drive runs the closed loop over gen(first), gen(first+1), ... and stops
// issuing at index limit or once deadline has passed (a request in flight
// at the deadline completes and counts). With rec set, every request is a
// root span and the transport adds its shard calls as children.
func drive(svc *service, gen func(i int) (*input, string), first, limit int, deadline time.Time, rec *recorder) phase {
	rootName := "server.handle"
	if svc.gw != nil {
		rootName = "cluster.gateway"
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, steal0 := processCPU(), stealTicks()
	t0 := time.Now()

	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= limit || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				in, q := gen(i)
				req := httptest.NewRequest(http.MethodPost, q, bytes.NewReader(in.body))
				req.Header.Set("Content-Type", "text/plain")
				rw := httptest.NewRecorder()
				end := func() {}
				if rec != nil {
					ctx, done := rec.root(req.Context(), rootName, int64(i))
					req, end = req.WithContext(ctx), done
				}
				ts := time.Now()
				svc.handler.ServeHTTP(rw, req)
				lat := time.Since(ts)
				end()
				// The check runs after the latency sample is taken.
				o := check(in, rw.Code, rw.Body.Bytes())
				o.index, o.lat = i, lat
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()

	p := phase{elapsed: time.Since(t0), next: int(next.Load())}
	p.cpu, p.steal = processCPU()-cpu0, stealTicks()-steal0
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	for _, o := range per {
		p.outcomes = append(p.outcomes, o...)
	}
	sort.Slice(p.outcomes, func(a, b int) bool { return p.outcomes[a].index < p.outcomes[b].index })
	return p
}

// scheduleBody is the part of a 200 /schedule body the checker reads.
type scheduleBody struct {
	Cycles     int `json:"cycles"`
	Placements []struct {
		Cluster, FU, Start, Latency int
	} `json:"placements"`
	CommList []struct {
		Value, From, To, Depart, Arrive int
	} `json:"commList"`
	CacheHit bool `json:"cacheHit"`
	Degraded bool `json:"degraded"`
	Attempts []struct {
		Ms float64 `json:"ms"`
	} `json:"attempts"`
}

// check decodes a response and revalidates its placements and comms against
// the request's graph and machine, as a client of schedd should.
func check(in *input, code int, body []byte) outcome {
	if code != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: status %d: %.200s", in.name, code, body)}
	}
	var b scheduleBody
	if err := json.Unmarshal(body, &b); err != nil {
		return outcome{wrong: true, err: fmt.Errorf("%s: decoding response: %w", in.name, err)}
	}
	s := &schedule.Schedule{Graph: in.graph, Machine: in.model, Placements: make([]schedule.Placement, len(b.Placements))}
	for i, p := range b.Placements {
		s.Placements[i] = schedule.Placement{Cluster: p.Cluster, FU: p.FU, Start: p.Start, Latency: p.Latency}
	}
	for _, c := range b.CommList {
		s.Comms = append(s.Comms, schedule.Comm{Value: c.Value, From: c.From, To: c.To, Depart: c.Depart, Arrive: c.Arrive})
	}
	if err := s.Validate(); err != nil {
		return outcome{wrong: true, err: fmt.Errorf("%s: served schedule is illegal: %w", in.name, err)}
	}
	if s.Length() != b.Cycles {
		return outcome{wrong: true, err: fmt.Errorf("%s: response claims %d cycles, schedule has %d", in.name, b.Cycles, s.Length())}
	}
	o := outcome{ok: true, cycles: b.Cycles, attempts: len(b.Attempts), degraded: b.Degraded, cacheHit: b.CacheHit}
	for _, a := range b.Attempts {
		o.rungMs += a.Ms
	}
	return o
}

// percentile returns the nearest-rank q-quantile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
