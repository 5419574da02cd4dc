package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/irtext"
	"repro/internal/server"
)

// TestServeLifecycle boots the daemon against a real in-process shard,
// routes one request end to end, and drains it with a SIGTERM.
func TestServeLifecycle(t *testing.T) {
	shard := httptest.NewServer(server.New(server.Config{Seed: 2002, ShardID: "s1"}).Handler())
	defer shard.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := options{
		shards:     multiFlag{strings.TrimPrefix(shard.URL, "http://")},
		probeEvery: 20 * time.Millisecond,
		drain:      5 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var logBuf bytes.Buffer
	go func() { done <- serve(o, ln, stop, log.New(&logBuf, "schedgw: ", 0)) }()

	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never became ready; log:\n%s", logBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	ddg := irtext.String(k.Build(2))
	resp, err := http.Post(base+"/schedule?machine=vliw2", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Schedgw-Shard"); got != o.shards[0] {
		t.Errorf("X-Schedgw-Shard = %q, want %q", got, o.shards[0])
	}
	if got := resp.Header.Get(server.ShardHeader); got != "s1" {
		t.Errorf("%s = %q, want s1", server.ShardHeader, got)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v; log:\n%s", err, logBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	if !strings.Contains(logBuf.String(), "drained cleanly") {
		t.Errorf("drain not logged:\n%s", logBuf.String())
	}
}

// TestServeRejectsBadConfig: a shardless gateway is a startup error, not a
// daemon that routes nothing, and so are retry settings whose results
// channel or backoff (-retry-base << -max-retries) would not fit.
func TestServeRejectsBadConfig(t *testing.T) {
	shard := multiFlag{"127.0.0.1:1"}
	cases := []struct {
		name string
		o    options
		ok   bool
	}{
		{"no shards", options{}, false},
		{"max retries 17", options{shards: shard, maxRetries: 17}, false},
		{"max retries 2^40", options{shards: shard, maxRetries: 1 << 40}, false},
		{"retry base over 1m", options{shards: shard, retryBase: time.Minute + time.Nanosecond}, false},
		{"retry base 2^62ns", options{shards: shard, retryBase: 1 << 62}, false},
		{"largest retry settings", options{shards: shard, maxRetries: 16, retryBase: time.Minute}, true},
	}
	for _, c := range cases {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// An accepted config serves until this signal, then drains and
		// returns nil.
		stop := make(chan os.Signal, 1)
		stop <- syscall.SIGTERM
		o := c.o
		o.drain = time.Second
		err = serve(o, ln, stop, log.New(io.Discard, "", 0))
		ln.Close()
		if (err == nil) != c.ok {
			t.Errorf("%s: serve returned %v, want accepted=%v", c.name, err, c.ok)
		}
	}
}
