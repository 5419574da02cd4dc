package server

// Tests for the cluster-facing server surface: tenant API-key auth, shard
// identity in responses, the bounded-cardinality per-tenant latency
// histogram, and breaker half-open probing racing a graceful drain.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/robust"
)

// writeFile is a tiny os.WriteFile wrapper for key-file fixtures.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}

// grepLines returns the scrape lines mentioning substr, for error messages.
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// postAs sends a /schedule request with explicit tenant/key headers.
func postAs(t *testing.T, ts *httptest.Server, query, tenant, key, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/schedule?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if tenant != "" {
		req.Header.Set("X-Schedd-Tenant", tenant)
	}
	if key != "" {
		req.Header.Set(TenantKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestTenantKeyAuth pins the identity contract with keys configured: a
// claimed tenant must prove itself, anonymous requests stay first-class, and
// rejections are structured 401s that never reach admission accounting.
func TestTenantKeyAuth(t *testing.T) {
	s := New(Config{
		Seed:       2002,
		TenantKeys: KeySet{"acme": "s3cret"},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	// Anonymous: no identity claim, no key needed.
	if code, body := postAs(t, ts, "machine=vliw4", "", "", ddg); code != http.StatusOK {
		t.Fatalf("anonymous request: %d: %s", code, body)
	}

	expect401 := func(tenant, key string) {
		t.Helper()
		code, body := postAs(t, ts, "machine=vliw4", tenant, key, ddg)
		if code != http.StatusUnauthorized {
			t.Fatalf("tenant %q key %q: got %d, want 401: %s", tenant, key, code, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != "unauthorized" {
			t.Fatalf("401 body not structured unauthorized (%v): %s", err, body)
		}
	}
	expect401("acme", "")        // claimed identity, no key
	expect401("acme", "wrong")   // wrong key
	expect401("intruder", "any") // unregistered tenant cannot claim a class

	// The right key is accepted and the work attributed to the tenant.
	code, body := postAs(t, ts, "machine=vliw4", "acme", "s3cret", ddg)
	if code != http.StatusOK {
		t.Fatalf("authorized request: %d: %s", code, body)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Tenant != "acme" {
		t.Fatalf("authorized response tenant = %q (%v)", resp.Tenant, err)
	}

	// Query fallback for clients that cannot set headers.
	if code, body := post(t, ts, "machine=vliw4&tenant=acme&key=s3cret", ddg); code != http.StatusOK {
		t.Fatalf("query-auth request: %d: %s", code, body)
	}

	// Rejections never touched admission: only the three 200s are counted.
	if st := s.StatsSnapshot(); st.Admission.Accepted != 3 {
		t.Errorf("admission accepted %d requests, want 3 (401s must not be admitted)", st.Admission.Accepted)
	}
}

// TestKeySpecAndFile covers the flag/file plumbing for key sets.
func TestKeySpecAndFile(t *testing.T) {
	if tenant, key, err := parseKeySpec("acme=s3cret"); err != nil || tenant != "acme" || key != "s3cret" {
		t.Errorf("parseKeySpec: %q %q %v", tenant, key, err)
	}
	for _, bad := range []string{"", "acme", "acme=", "=s3cret", "bad name=x"} {
		if _, _, err := parseKeySpec(bad); err == nil {
			t.Errorf("parseKeySpec(%q) accepted", bad)
		}
	}

	dir := t.TempDir()
	path := dir + "/keys.json"
	if err := writeFile(path, `{"acme": "s3cret", "beta": "hunter2"}`); err != nil {
		t.Fatal(err)
	}
	ks, err := loadKeyFile(path)
	if err != nil || len(ks) != 2 || ks["acme"] != "s3cret" {
		t.Fatalf("loadKeyFile: %v %v", ks, err)
	}
	if err := writeFile(path, `{"bad name": "x"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := loadKeyFile(path); err == nil {
		t.Error("loadKeyFile accepted an invalid tenant name")
	}
}

// TestLoadKeysMergesFileAndSpecs: the -tenant-key specs schedd and schedgw
// pass override the -tenant-keys file, and bad specs fail loudly.
func TestLoadKeysMergesFileAndSpecs(t *testing.T) {
	path := t.TempDir() + "/keys.json"
	if err := writeFile(path, `{"acme": "from-file", "beta": "b2"}`); err != nil {
		t.Fatal(err)
	}
	ks, err := LoadKeys(path, []string{"acme=from-flag", "gamma=g3"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"acme": "from-flag", "beta": "b2", "gamma": "g3"}
	if len(ks) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(ks), len(want), ks)
	}
	for tenant, key := range want {
		if ks[tenant] != key {
			t.Errorf("keys[%q] = %q, want %q", tenant, ks[tenant], key)
		}
	}
	if _, err := LoadKeys("", []string{"no-equals-sign"}); err == nil {
		t.Error("malformed key spec accepted")
	}
	if ks, err := LoadKeys("", nil); err != nil || len(ks) != 0 {
		t.Errorf("no file, no specs: keys=%v err=%v", ks, err)
	}
}

// TestShardIdentity: with a ShardID configured, every answer carries it in
// the X-Schedd-Shard header, the 200 body, and /stats — the attribution the
// gateway's routing assertions depend on.
func TestShardIdentity(t *testing.T) {
	s := New(Config{Seed: 2002, ShardID: "shard-a"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	resp, err := http.Post(ts.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(ShardHeader); got != "shard-a" {
		t.Errorf("%s header = %q, want shard-a", ShardHeader, got)
	}
	var sr scheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Shard != "shard-a" {
		t.Errorf("response shard = %q (%v)", sr.Shard, err)
	}
	if st := s.StatsSnapshot(); st.Shard != "shard-a" {
		t.Errorf("stats shard = %q", st.Shard)
	}

	// Without a ShardID nothing changes on the wire.
	s2 := New(Config{Seed: 2002})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(ShardHeader); got != "" {
		t.Errorf("shardless server sent %s=%q", ShardHeader, got)
	}
}

// TestTopKTracker pins the slot-granting rules of the bounded-cardinality
// tenant histogram: sustained volume earns a dedicated label, one-off names
// stay in overflow, and slots are finite.
func TestTopKTracker(t *testing.T) {
	tr := newTopKTracker(2, 3)
	for i := 0; i < 2; i++ {
		if got := tr.labelFor("hot"); got != overflowTenant {
			t.Fatalf("observation %d of hot: label %q before threshold", i, got)
		}
	}
	if got := tr.labelFor("hot"); got != "hot" {
		t.Fatalf("threshold-crossing observation: label %q, want hot", got)
	}
	if got := tr.labelFor("hot"); got != "hot" {
		t.Fatalf("slot not sticky: %q", got)
	}
	// Second slot to warm2, then the table is full: warm3 can never graduate.
	for i := 0; i < 3; i++ {
		tr.labelFor("warm2")
	}
	for i := 0; i < 10; i++ {
		if got := tr.labelFor("warm3"); got != overflowTenant {
			t.Fatalf("warm3 got label %q with all slots taken", got)
		}
	}
}

// TestTenantLatencyMetric drives enough traffic through one tenant to earn a
// dedicated histogram label and checks the scrape: the hot tenant appears by
// name, the one-off tenant only in the overflow label.
func TestTenantLatencyMetric(t *testing.T) {
	s := New(Config{Seed: 2002})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	for i := 0; i <= topKSlotThreshold; i++ {
		if code, body := postAs(t, ts, "machine=vliw4", "hot", "", ddg); code != http.StatusOK {
			t.Fatalf("hot request %d: %d: %s", i, code, body)
		}
	}
	if code, body := postAs(t, ts, "machine=vliw4", "oneoff", "", ddg); code != http.StatusOK {
		t.Fatalf("oneoff request: %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(text)
	if !strings.Contains(scrape, `schedd_tenant_latency_seconds_bucket{tenant="hot"`) {
		t.Errorf("hot tenant did not earn a dedicated latency label:\n%s", grepLines(scrape, "tenant_latency"))
	}
	if !strings.Contains(scrape, `schedd_tenant_latency_seconds_bucket{tenant="`+overflowTenant+`"`) {
		t.Errorf("overflow label missing from the scrape:\n%s", grepLines(scrape, "tenant_latency"))
	}
	if strings.Contains(scrape, `schedd_tenant_latency_seconds_bucket{tenant="oneoff"`) {
		t.Errorf("one-off tenant minted its own histogram series:\n%s", grepLines(scrape, "tenant_latency"))
	}
}

// TestBreakerHalfOpenProbeDuringDrain is the drain/half-open race from the
// cluster work: a rung breaker trips, its cooldown expires, and the next
// request — the half-open probe — is mid-flight when the drain starts. The
// drain must finish (the probe's slot must not wedge it), the probe request
// must be served through the ladder rather than answered from memo (a cache
// hit would mean the breaker never actually probed), and afterwards no
// breaker may be stuck half-open.
func TestBreakerHalfOpenProbeDuringDrain(t *testing.T) {
	s := New(Config{
		Workers:        2,
		DefaultTimeout: time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassStall, Seed: 1, Stall: 300 * time.Millisecond},
		Breakers:       robust.BreakerPolicy{Failures: 1, Cooldown: 30 * time.Millisecond},
		Seed:           2002,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trip: the stalled rung misses its 30ms budget, the fallback rescues,
	// and one recorded failure opens the breaker.
	ddg1 := ddgFor(t, "vvmul", 4)
	if code, body := post(t, ts, "machine=vliw4&timeout=30ms", ddg1); code != http.StatusOK {
		t.Fatalf("tripping request: %d: %s", code, body)
	}
	tripped := false
	for _, b := range s.StatsSnapshot().Breakers {
		if b.State == robust.BreakerOpen {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("no breaker opened after the stalled rung failed")
	}

	// Let the cooldown expire, then launch the half-open probe on a graph the
	// cache has never seen (same machine, so the same breaker scope): the
	// probe must be computed, not memoized.
	time.Sleep(100 * time.Millisecond)
	ddg2 := ddgFor(t, "yuv", 4)
	probeDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/schedule?machine=vliw4&timeout=30ms", "text/plain", strings.NewReader(ddg2))
		if err != nil {
			probeDone <- nil
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		probeDone <- body
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.StatsSnapshot().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe request never went in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	// SIGTERM lands now: the drain must wait out the in-flight probe and
	// finish well inside its budget.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain deadlocked on the half-open probe: %v", err)
	}

	body := <-probeDone
	if body == nil {
		t.Fatal("probe request failed at transport level")
	}
	if err := checkLegal(body, ddg2, "vliw4"); err != nil {
		t.Fatalf("probe response: %v", err)
	}
	var pr scheduleResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.CacheHit || pr.Shared {
		t.Errorf("half-open probe was memoized (cacheHit=%v shared=%v); the breaker never probed", pr.CacheHit, pr.Shared)
	}
	if len(pr.Attempts) == 0 {
		t.Error("probe response carries no ladder attempts; the rung never ran")
	}
	for _, b := range s.StatsSnapshot().Breakers {
		if b.State == robust.BreakerHalfOpen {
			t.Errorf("breaker %s stuck half-open after drain: its probe slot leaked", b.Key)
		}
	}
}
