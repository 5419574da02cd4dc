package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/irtext"
	"repro/internal/server"
)

// bootServe starts serve on an ephemeral port and returns the base URL, the
// stop channel, the exit channel and the captured log.
func bootServe(t *testing.T, o options) (string, chan os.Signal, chan error, *bytes.Buffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logbuf bytes.Buffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(o, ln, stop, log.New(&logbuf, "schedd: ", 0)) }()
	base := "http://" + ln.Addr().String()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, stop, done, &logbuf
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("schedd never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitReady polls /readyz until it answers 200. bootServe only waits for
// /healthz; with a store configured, readiness follows the asynchronous
// store replay, which can still answer 503 "starting".
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(base + "/readyz")
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeScheduleAndDrain boots the daemon loop with chaos active, serves a
// request, then delivers SIGTERM and expects a clean drain with final stats.
func TestServeScheduleAndDrain(t *testing.T) {
	o := options{
		queue:     8,
		cacheSize: 256,
		timeout:   2 * time.Second,
		drain:     5 * time.Second,
		seed:      2002,
		chaos:     "pass-panic",
		chaosSeed: 7,
	}
	base, stop, done, logbuf := bootServe(t, o)

	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	ddg := irtext.String(k.Build(4))
	resp, err := http.Post(base+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule request: %d: %s", resp.StatusCode, body)
	}
	var sched struct {
		Cycles   int  `json:"cycles"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &sched); err != nil || sched.Cycles == 0 {
		t.Fatalf("schedule body: %v: %s", err, body)
	}
	if !sched.Degraded {
		t.Error("pass-panic chaos should force a degraded serve")
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("admission")) {
		t.Fatalf("/stats: %d: %s", resp.StatusCode, body)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	logs := logbuf.String()
	for _, want := range []string{"chaos mode", "final stats", "drained cleanly"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
}

func TestValidateStoreFlags(t *testing.T) {
	dir := t.TempDir()
	good := options{storeDir: dir, cacheSize: 256}
	if err := validateStoreFlags(good); err != nil {
		t.Fatalf("valid store flags rejected: %v", err)
	}
	if err := validateStoreFlags(options{}); err != nil {
		t.Fatalf("no-store options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"negative cache", func(o *options) { o.cacheSize = -1 }},
		{"missing parent", func(o *options) { o.storeDir = dir + "/no/such/parent/store" }},
	}
	for _, c := range cases {
		o := good
		c.mut(&o)
		if err := validateStoreFlags(o); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestStoreDuplicateDirRefused: a second daemon on the same -store-dir must
// refuse to start (lockfile), leaving the first untouched.
func TestStoreDuplicateDirRefused(t *testing.T) {
	dir := t.TempDir()
	o := options{
		queue: 8, cacheSize: 256, timeout: 2 * time.Second, drain: 5 * time.Second,
		seed: 2002, storeDir: dir,
	}
	base, stop, done, _ := bootServe(t, o)
	waitReady(t, base)

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logbuf bytes.Buffer
	err = serve(o, ln2, make(chan os.Signal, 1), log.New(&logbuf, "schedd: ", 0))
	ln2.Close()
	if err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second daemon on %s started (err %v)", dir, err)
	}

	// The first daemon is unharmed and still ready.
	resp, rerr := http.Get(base + "/readyz")
	if rerr != nil {
		t.Fatal(rerr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first daemon lost readiness: %d", resp.StatusCode)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestServeStoreWarmRestart drives the daemon loop end to end: populate,
// SIGTERM (drain flushes the store), boot a successor on the same directory,
// and require a warm hit.
func TestServeStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	o := options{
		queue: 8, cacheSize: 256, timeout: 2 * time.Second, drain: 5 * time.Second,
		seed: 2002, storeDir: dir,
	}
	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	ddg := irtext.String(k.Build(4))

	base, stop, done, _ := bootServe(t, o)
	resp, err := http.Post(base+"/schedule?machine=raw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("populate: %d", resp.StatusCode)
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("first daemon: %v", err)
	}

	base2, stop2, done2, logbuf := bootServe(t, o)
	waitReady(t, base2)
	resp, err = http.Post(base2+"/schedule?machine=raw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sched struct {
		CacheHit bool `json:"cacheHit"`
	}
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatalf("schedule body: %v: %s", err, body)
	}
	if !sched.CacheHit {
		t.Errorf("restarted daemon missed the cache: %s", body)
	}
	if !strings.Contains(logbuf.String(), "store recovery: replayed=1") {
		t.Errorf("recovery line missing from logs:\n%s", logbuf.String())
	}
	stop2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatalf("second daemon: %v", err)
	}
}

// TestTenancyFor covers the merge order of the tenancy sources: config file,
// then repeatable -tenant-class (replace-by-name), then -tenant assignments,
// then -default-class — validated as a whole.
func TestTenancyFor(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "tenants.json")
	cfg := `{
  "classes": [
    {"name": "gold", "weight": 4, "queue": 16},
    {"name": "bronze", "weight": 1, "queue": 4}
  ],
  "tenants": {"vip": "gold"}
}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	o := options{
		tenantConfig:  cfgPath,
		tenantClasses: multiFlag{"gold:weight=8,queue=32,inflight=2"}, // overrides file
		tenantAssign:  multiFlag{"batch=bronze"},
	}
	tc, err := tenancyFor(o)
	if err != nil {
		t.Fatalf("tenancyFor: %v", err)
	}
	if len(tc.Classes) != 2 {
		t.Fatalf("classes = %+v, want gold+bronze", tc.Classes)
	}
	var gold server.TenantClass
	for _, c := range tc.Classes {
		if c.Name == "gold" {
			gold = c
		}
	}
	if gold.Weight != 8 || gold.MaxQueue != 32 || gold.MaxInflight != 2 {
		t.Errorf("flag did not replace file class: %+v", gold)
	}
	if tc.Tenants["vip"] != "gold" || tc.Tenants["batch"] != "bronze" {
		t.Errorf("tenants = %v, want vip->gold (file) and batch->bronze (flag)", tc.Tenants)
	}

	bad := []options{
		{tenantClasses: multiFlag{"gold:weight=x"}},                // malformed spec
		{tenantAssign: multiFlag{"vip=nosuch"}},                    // unknown class
		{tenantAssign: multiFlag{"not-an-assignment"}},             // missing =
		{tenantClasses: multiFlag{"gold"}, defaultClass: "nosuch"}, // undefined default
		{tenantConfig: filepath.Join(t.TempDir(), "absent.json")},  // unreadable file
	}
	for i, o := range bad {
		if _, err := tenancyFor(o); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
}

// TestServeWithTenancy boots the daemon with tenancy flags and checks a
// tenant-attributed request lands in its configured class end to end.
func TestServeWithTenancy(t *testing.T) {
	o := options{
		queue:         8,
		cacheSize:     256,
		timeout:       2 * time.Second,
		drain:         5 * time.Second,
		seed:          2002,
		tenantClasses: multiFlag{"gold:weight=8,queue=16"},
		tenantAssign:  multiFlag{"vip=gold"},
	}
	base, stop, done, _ := bootServe(t, o)
	defer func() {
		stop <- syscall.SIGTERM
		<-done
	}()

	k, ok := bench.ByName("vvmul")
	if !ok {
		t.Fatal("vvmul not registered")
	}
	ddg := irtext.String(k.Build(4))
	req, err := http.NewRequest(http.MethodPost, base+"/schedule?machine=vliw4", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Schedd-Tenant", "vip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant request: %d: %s", resp.StatusCode, body)
	}
	var attr struct{ Tenant, Class string }
	if err := json.Unmarshal(body, &attr); err != nil {
		t.Fatalf("decode response: %v: %.300s", err, body)
	}
	if attr.Tenant != "vip" || attr.Class != "gold" {
		t.Fatalf("response not attributed to vip/gold: %.300s", body)
	}

	sresp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st struct {
		Admission struct {
			Tenants []struct {
				Tenant    string `json:"tenant"`
				Class     string `json:"class"`
				Completed uint64 `json:"completed"`
			} `json:"tenants"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	for _, ten := range st.Admission.Tenants {
		if ten.Tenant == "vip" && ten.Class == "gold" && ten.Completed == 1 {
			return
		}
	}
	t.Fatalf("stats do not attribute the request to vip/gold: %s", sbody)
}
