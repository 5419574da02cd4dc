package cluster

// Gateway unit tests against scripted fake shards: the loss-free hedging
// proof with a deliberately slow shard, edge auth, reroute-on-refusal with
// breaker tripping, and below-quorum degradation.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/irtext"
	"repro/internal/robust"
	"repro/internal/server"
)

// fakeShard is a scripted schedd stand-in: always-ready /readyz, and a
// /schedule whose latency and status the test controls at runtime.
type fakeShard struct {
	ts      *httptest.Server
	name    string
	delayNs atomic.Int64 // /schedule latency
	status  atomic.Int64 // /schedule status (default 200)
	ready   atomic.Bool
	hits    atomic.Int64 // /schedule attempts received
	probes  atomic.Int64 // /readyz requests received
	cancels atomic.Int64 // attempts whose context died mid-delay (hedge losers)
}

func newFakeShard(t *testing.T) *fakeShard {
	f := &fakeShard{}
	f.status.Store(http.StatusOK)
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		f.probes.Add(1)
		if !f.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		// Consume the body before sleeping: the server only watches for the
		// client disconnect (which fires r.Context().Done()) once no request
		// bytes remain unread.
		io.Copy(io.Discard, r.Body)
		if d := time.Duration(f.delayNs.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				f.cancels.Add(1)
				return
			}
		}
		code := int(f.status.Load())
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(server.ShardHeader, f.name)
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"served":"fake","shard":%q}`, f.name)
	})
	f.ts = httptest.NewServer(mux)
	u, _ := url.Parse(f.ts.URL)
	f.name = u.Host
	t.Cleanup(f.ts.Close)
	return f
}

// testDDG is a real unit body — the gateway parses it for the routing key.
func testDDG(t *testing.T) string {
	t.Helper()
	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	return irtext.String(k.Build(4))
}

// primaryFor reports the ring-primary shard for a unit body.
func primaryFor(t *testing.T, g *Gateway, ddg string) string {
	t.Helper()
	gr, err := irtext.ParseString(ddg)
	if err != nil {
		t.Fatal(err)
	}
	return g.fleet.Load().ring.Owners(KeyFor(gr.CanonicalHash()), 1)[0]
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	return g
}

// TestHedgeLossFree is the loss-free hedging proof: the primary shard is
// deliberately slow, the hedge wins at the next ring shard, the client gets
// exactly one response, the loser's context is cancelled, and the counters
// prove it — doubleDeliveries pinned at zero, the loser surfacing only as a
// late result.
func TestHedgeLossFree(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	g := newTestGateway(t, Config{
		Shards:     []string{a.name, b.name},
		HedgeAfter: 25 * time.Millisecond,
		ProbeEvery: 20 * time.Millisecond,
	})
	ddg := testDDG(t)
	slow, fast := a, b
	if primaryFor(t, g, ddg) == b.name {
		slow, fast = b, a
	}
	slow.delayNs.Store(int64(2 * time.Second))

	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	resp, err := http.Post(gw.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Schedgw-Shard"); got != fast.name {
		t.Errorf("served by %q, want the hedge target %q", got, fast.name)
	}
	if resp.Header.Get("X-Schedgw-Hedged") != "1" {
		t.Error("winning response not marked as hedged")
	}
	if got := resp.Header.Get(server.ShardHeader); got != fast.name {
		t.Errorf("%s = %q, want %q", server.ShardHeader, got, fast.name)
	}

	// Exactly one result was delivered; the loser was cancelled and drained.
	deadline := time.Now().Add(2 * time.Second)
	for slow.cancels.Load() == 0 || g.lateResults.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("loser never settled: cancels=%d lateResults=%d",
				slow.cancels.Load(), g.lateResults.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := g.StatsSnapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if st.Delivered != 1 {
		t.Errorf("delivered=%d, want exactly 1", st.Delivered)
	}
	if st.DoubleDeliveries != 0 {
		t.Errorf("doubleDeliveries=%d — the loss-free invariant is broken", st.DoubleDeliveries)
	}
	if st.LateResults != 1 {
		t.Errorf("lateResults=%d, want 1 (the cancelled loser)", st.LateResults)
	}
}

// TestEdgeAuthAndBadBodies: forged identities and garbage are rejected at
// the gateway without any shard paying for them.
func TestEdgeAuthAndBadBodies(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	g := newTestGateway(t, Config{
		Shards: []string{a.name, b.name},
		Keys:   server.KeySet{"acme": "s3cret"},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	ddg := testDDG(t)

	do := func(tenant, key, body string) int {
		req, _ := http.NewRequest(http.MethodPost, gw.URL+"/schedule", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Schedd-Tenant", tenant)
		}
		if key != "" {
			req.Header.Set(server.TenantKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do("acme", "wrong", ddg); code != http.StatusUnauthorized {
		t.Errorf("forged identity: %d, want 401", code)
	}
	if code := do("", "", "not a ddg"); code != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", code)
	}
	// A valid unit padded with # comment lines to one byte past the shards'
	// cap is refused at the edge, never forwarded to a shard that would
	// refuse it too.
	comment := "#" + strings.Repeat(" ", 62) + "\n"
	oversized := (ddg + strings.Repeat(comment, server.MaxBodyBytes/len(comment)+1))[:server.MaxBodyBytes+1]
	if code := do("", "", oversized); code != http.StatusBadRequest {
		t.Errorf("oversized body: %d, want 400", code)
	}
	if a.hits.Load()+b.hits.Load() != 0 {
		t.Errorf("%d shard attempts for requests rejected at the edge", a.hits.Load()+b.hits.Load())
	}
	st := g.StatsSnapshot()
	if st.AuthFailures != 1 || st.BadRequests != 2 {
		t.Errorf("authFailures=%d badRequests=%d, want 1/2", st.AuthFailures, st.BadRequests)
	}
	for _, sh := range st.Shards {
		if sh.Forwarded != 0 {
			t.Errorf("shard %s: %d forwarded for requests rejected at the edge", sh.Name, sh.Forwarded)
		}
	}
	// The verified identity is accepted and forwarded.
	if code := do("acme", "s3cret", ddg); code != http.StatusOK {
		t.Errorf("authorized request: %d", code)
	}
}

// TestRerouteAndBreakerTrip: a shard refusing with 503 is failed over
// immediately, its failures trip the breaker, and further requests skip it
// entirely until the cooldown.
func TestRerouteAndBreakerTrip(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	g := newTestGateway(t, Config{
		Shards:     []string{a.name, b.name},
		ProbeEvery: time.Hour, // freeze health at the initial sweep: requests drive the breaker
		Breakers:   robust.BreakerPolicy{Failures: 3, Cooldown: time.Hour},
	})
	ddg := testDDG(t)
	refusing, serving := a, b
	if primaryFor(t, g, ddg) == b.name {
		refusing, serving = b, a
	}
	refusing.status.Store(http.StatusServiceUnavailable)

	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	post := func() (int, string) {
		resp, err := http.Post(gw.URL+"/schedule", "text/plain", strings.NewReader(ddg))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-Schedgw-Shard")
	}
	// Default breaker policy: 3 failures trip. Every request still lands 200
	// at the healthy shard.
	for i := 0; i < 3; i++ {
		code, shard := post()
		if code != http.StatusOK || shard != serving.name {
			t.Fatalf("request %d: %d from %q, want 200 from %q", i, code, shard, serving.name)
		}
	}
	if st := g.StatsSnapshot(); st.Reroutes < 3 {
		t.Errorf("reroutes=%d after 3 failovers", st.Reroutes)
	}
	attemptsBefore := refusing.hits.Load()
	if attemptsBefore < 3 {
		t.Fatalf("refusing shard saw %d attempts, want >= 3", attemptsBefore)
	}
	// Breaker now open: the refusing shard is skipped without an attempt.
	for i := 0; i < 4; i++ {
		if code, _ := post(); code != http.StatusOK {
			t.Fatalf("post-trip request %d: %d", i, code)
		}
	}
	if got := refusing.hits.Load(); got != attemptsBefore {
		t.Errorf("tripped shard still attempted: %d -> %d hits", attemptsBefore, got)
	}
}

// TestQuorumDegradedRouting: with the fleet below quorum the ring order is
// abandoned but the survivor keeps serving, and the degradation is counted.
func TestQuorumDegradedRouting(t *testing.T) {
	alive := newFakeShard(t)
	// Two dead addresses: reserved ports with nothing listening.
	dead := make([]string, 2)
	for i := range dead {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = ln.Addr().String()
		ln.Close()
	}
	g := newTestGateway(t, Config{
		Shards:     []string{dead[0], alive.name, dead[1]},
		ProbeEvery: 20 * time.Millisecond,
		MaxRetries: -1, // dead shards answer instantly with conn-refused; no backoff needed
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	ddg := testDDG(t)

	for i := 0; i < 4; i++ {
		resp, err := http.Post(gw.URL+"/schedule", "text/plain", strings.NewReader(ddg))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded request %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	st := g.StatsSnapshot()
	if st.Alive != 1 {
		t.Errorf("alive=%d, want 1", st.Alive)
	}
	if st.QuorumDegraded == 0 {
		t.Error("below-quorum routing not counted")
	}
	// Below quorum the gateway still serves, but advertises the degradation:
	// Ready is false and /readyz answers a structured 503 kind=degraded so an
	// operator (or load balancer) can see the fleet needs attention.
	if st.Ready {
		t.Error("gateway claims ready while below quorum")
	}
	resp0, err := http.Get(gw.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ge struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp0.Body).Decode(&ge); err != nil {
		t.Fatalf("decoding /readyz body: %v", err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusServiceUnavailable || ge.Error.Kind != "degraded" {
		t.Fatalf("below-quorum /readyz = %d kind=%q, want 503 kind=degraded", resp0.StatusCode, ge.Error.Kind)
	}

	// Nothing alive at all: structured 503, and /readyz agrees.
	alive.ready.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for g.StatsSnapshot().Alive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never noticed the last shard going away")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(gw.URL+"/schedule", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-shard request: %d: %s", resp.StatusCode, body)
	}
	var eb struct {
		Error struct{ Kind string } `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != "unavailable" {
		t.Errorf("no-shard error not structured (%v): %s", err, body)
	}
	rz, err := http.Get(gw.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with no shard alive", rz.StatusCode)
	}
}

// TestGatewayDrain: a draining gateway refuses new work with a structured
// 503 and Drain returns once in-flight work is gone.
func TestGatewayDrain(t *testing.T) {
	a := newFakeShard(t)
	g := newTestGateway(t, Config{Shards: []string{a.name}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatalf("drain of an idle gateway: %v", err)
	}
	resp, err := http.Post(gw.URL+"/schedule", "text/plain", strings.NewReader(testDDG(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("post-drain request: %d: %s", resp.StatusCode, body)
	}
}

// refP95 is the hedge budget's percentile as it was first written: a fresh
// copy of the filled window, sorted with sort.Slice.
func refP95(w *latWindow) (time.Duration, bool) {
	if w.n < 32 {
		return 0, false
	}
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(len(tmp)*95)/100], true
}

// TestLatWindowP95MatchesReference: reusing the window's scratch slice
// gives the reference percentile below 32 samples, while the window fills
// and after it wraps around, and allocates nothing once the scratch exists.
func TestLatWindowP95MatchesReference(t *testing.T) {
	w := newLatWindow(512)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*512+17; i++ {
		w.add(time.Duration(rng.Intn(200)) * time.Microsecond)
		got, gotOK := w.p95()
		want, wantOK := refP95(w)
		if got != want || gotOK != wantOK {
			t.Fatalf("after %d samples: p95 %v,%v, reference %v,%v", i+1, got, gotOK, want, wantOK)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { w.p95() }); allocs != 0 {
		t.Fatalf("p95 allocates %.0f times per call", allocs)
	}
}
