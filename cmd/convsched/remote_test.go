package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// remoteOpts is the default remote-mode flag set pointed at ts.
func remoteOpts(ts *httptest.Server) options {
	o := opts("vliw4", "convergent", "stats", true)
	o.fallback = true
	o.serveAddr = ts.URL
	return o
}

// TestRunRemote drives convsched's client mode against an in-process schedd:
// the batch output format, per-unit lines, and the cache tag on a repeat.
func TestRunRemote(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Seed: 2002}).Handler())
	defer ts.Close()

	a := writeKernel(t, "vvmul", 4)
	b := writeKernel(t, "fir", 4)
	out, err := capture(t, func() error {
		return run(remoteOpts(ts), []string{a, b, a})
	})
	if err != nil {
		t.Fatalf("remote run failed: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // three unit lines + summary
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	for _, l := range lines[:3] {
		if !strings.Contains(l, "cycles") || !strings.Contains(l, "served by") {
			t.Errorf("unit line malformed: %q", l)
		}
	}
	// The repeated unit is answered from the service's schedule cache.
	if !strings.Contains(lines[2], "[cached]") {
		t.Errorf("repeat unit not served from cache: %q", lines[2])
	}
	if !strings.Contains(lines[3], "remote: 3 units") {
		t.Errorf("summary line: %q", lines[3])
	}
}

// TestRunRemoteSheds: a rate-limited schedd sheds, the client retries per
// Retry-After, and every unit is eventually served.
func TestRunRemoteSheds(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{
		Seed:       2002,
		RatePerSec: 2,
		Burst:      1,
		CacheSize:  -1, // force real scheduling per request to hold tokens down
	}).Handler())
	defer ts.Close()

	a := writeKernel(t, "vvmul", 4)
	b := writeKernel(t, "fir", 4)
	out, err := capture(t, func() error {
		return run(remoteOpts(ts), []string{a, b, a})
	})
	if err != nil {
		t.Fatalf("remote run under rate limit failed: %v\n%s", err, out)
	}
	if got := strings.Count(out, "served by"); got != 3 {
		t.Errorf("%d of 3 units served:\n%s", got, out)
	}
}

// TestRunRemoteErrors: remote mode rejects local-only flags and reports
// structured per-unit failures from the service.
func TestRunRemoteErrors(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Seed: 2002}).Handler())
	defer ts.Close()
	a := writeKernel(t, "vvmul", 4)

	o := remoteOpts(ts)
	o.chaos = "pass-panic"
	if _, err := capture(t, func() error { return run(o, []string{a}) }); err == nil {
		t.Error("-chaos with -serve-addr should be rejected")
	}

	o = remoteOpts(ts)
	o.show = "schedule"
	if _, err := capture(t, func() error { return run(o, []string{a}) }); err == nil {
		t.Error("-show schedule with -serve-addr should be rejected")
	}

	// A graph the machine cannot hold comes back as a structured error, and
	// the run reports the unit failure without crashing.
	o = remoteOpts(ts)
	o.timeout = 2 * time.Second
	bad := writeKernel(t, "vvmul", 8) // 8-cluster graph on vliw4
	out, err := capture(t, func() error { return run(o, []string{bad}) })
	if err == nil || !strings.Contains(err.Error(), "1 of 1 units failed") {
		t.Errorf("bad unit: err=%v out=%s", err, out)
	}
}

// TestRunRemoteSelectorNames: schedd accepts exactly the scheduler names
// the local path does, with and without fallback.
func TestRunRemoteSelectorNames(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Seed: 2002}).Handler())
	defer ts.Close()
	a := writeKernel(t, "vvmul", 4)
	for _, name := range append(selectorNames, "oracle") {
		for _, fallback := range []bool{false, true} {
			o := remoteOpts(ts)
			o.scheduler, o.fallback = name, fallback
			out, err := capture(t, func() error { return run(o, []string{a}) })
			if accepted := name != "oracle"; (err == nil) != accepted {
				t.Errorf("%s fallback=%v: remote err=%v, want accepted=%v\n%s", name, fallback, err, accepted, out)
			}
		}
	}
}

// TestJitteredRetryBounds pins the anti-retry-storm contract: whatever the
// server's Retry-After hint, the client waits a uniformly jittered span in
// [base/2, base] — never the verbatim hint — so shed clients desynchronize
// instead of re-saturating admission in lockstep.
func TestJitteredRetryBounds(t *testing.T) {
	cases := []struct {
		header  string
		attempt int
		base    time.Duration
	}{
		{"1", 1, time.Second},                  // header honored
		{"", 2, 100 * time.Millisecond},        // no header: linear backoff
		{"garbage", 3, 150 * time.Millisecond}, // unparseable: backoff
		{"0", 1, 50 * time.Millisecond},        // zero floor
		{"-4", 1, 50 * time.Millisecond},       // negative rejected
		{"60", 1, 2 * time.Second},             // absurd hint capped
	}
	for _, tc := range cases {
		distinct := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := retryAfter(tc.header, tc.attempt)
			if d < tc.base/2 || d > tc.base {
				t.Fatalf("retryAfter(%q, %d) = %v, want in [%v, %v]",
					tc.header, tc.attempt, d, tc.base/2, tc.base)
			}
			distinct[d] = true
		}
		if len(distinct) < 20 {
			t.Errorf("retryAfter(%q, %d): only %d distinct waits in 200 draws — not jittered",
				tc.header, tc.attempt, len(distinct))
		}
	}
}

// TestPostUnitRetriesConnRefused pins the fix for the batch-killing dial
// error: a connection refused on the first attempt — a daemon mid-restart —
// is retried with the jittered backoff, and the unit succeeds once the
// service comes up.
func TestPostUnitRetriesConnRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port now refuses connections, like a restarting daemon

	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, lerr := net.Listen("tcp", addr)
		if lerr != nil {
			return // port stolen; the test will report the dial failure
		}
		_ = (&http.Server{Handler: server.New(server.Config{Seed: 2002}).Handler()}).Serve(ln2)
	}()

	body, err := os.ReadFile(writeKernel(t, "vvmul", 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := postUnit("http://"+addr+"/schedule?machine=vliw4", "", body)
	if err != nil {
		t.Fatalf("postUnit did not survive the restart window: %v", err)
	}
	if res.Cycles <= 0 {
		t.Errorf("served schedule has %d cycles", res.Cycles)
	}
}

// TestPostUnitConnRefusedGivesUp: a dead target still fails — after the
// bounded attempts, with the dial error preserved.
func TestPostUnitConnRefusedGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	body, err := os.ReadFile(writeKernel(t, "vvmul", 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = postUnit("http://"+addr+"/schedule?machine=vliw4", "", body)
	if err == nil {
		t.Fatal("postUnit succeeded against a dead port")
	}
	if !strings.Contains(err.Error(), "after 5 attempts") {
		t.Errorf("error does not report the retry budget: %v", err)
	}
}

// TestRunRemoteTenantHeader: -tenant rides along as X-Schedd-Tenant and the
// daemon attributes the work to that identity.
func TestRunRemoteTenantHeader(t *testing.T) {
	s := server.New(server.Config{Seed: 2002})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	o := remoteOpts(ts)
	o.tenant = "acme"
	out, err := capture(t, func() error {
		return run(o, []string{writeKernel(t, "vvmul", 4)})
	})
	if err != nil {
		t.Fatalf("remote run failed: %v\n%s", err, out)
	}
	for _, ten := range s.StatsSnapshot().Admission.Tenants {
		if ten.Tenant == "acme" && ten.Completed == 1 {
			return
		}
	}
	t.Fatalf("daemon stats do not attribute the unit to tenant acme")
}
