package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// ddgFor serializes a named kernel for the given cluster count.
func ddgFor(t *testing.T, kernel string, clusters int) string {
	t.Helper()
	k, ok := bench.ByName(kernel)
	if !ok {
		t.Fatalf("kernel %s not registered", kernel)
	}
	return irtext.String(k.Build(clusters))
}

// post sends a /schedule request and returns status, body.
func post(t *testing.T, ts *httptest.Server, query, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/schedule?"+query, "text/plain", strings.NewReader(body))
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

// postCode is post for helper goroutines: no testing.T, transport errors
// come back as -1.
func postCode(ts *httptest.Server, query, body string) int {
	resp, err := http.Post(ts.URL+"/schedule?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// decodeSchedule rebuilds the schedule a 200 body describes and re-validates
// it against the graph and machine the client asked about.
func decodeSchedule(t *testing.T, body []byte, ddg, machineName string) (*schedule.Schedule, scheduleResponse) {
	t.Helper()
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("200 body is not schedule JSON: %v\n%s", err, body)
	}
	g, err := irtext.ParseString(ddg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Named(machineName)
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.Schedule{Graph: g, Machine: m}
	s.Placements = make([]schedule.Placement, len(resp.Placements))
	for i, p := range resp.Placements {
		s.Placements[i] = schedule.Placement{Cluster: p.Cluster, FU: p.FU, Start: p.Start, Latency: p.Latency}
	}
	for _, c := range resp.CommList {
		s.Comms = append(s.Comms, schedule.Comm{Value: c.Value, From: c.From, To: c.To, Depart: c.Depart, Arrive: c.Arrive})
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("200 body does not describe a legal schedule: %v", err)
	}
	return s, resp
}

func decodeError(t *testing.T, body []byte) errorJSON {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	if eb.Error.Kind == "" {
		t.Fatalf("error body has no kind: %s", body)
	}
	return eb.Error
}

func TestHealthReadyStats(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/stats": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	s.StartDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	// Liveness stays up while draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200", resp.StatusCode)
	}
}

func TestScheduleHappyPath(t *testing.T) {
	s := New(Config{Seed: 2002})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ kernel, machine string }{
		{"vvmul", "vliw4"},
		{"fir", "raw4"},
	} {
		ddg := ddgFor(t, tc.kernel, 4)
		code, body := post(t, ts, "machine="+tc.machine, ddg)
		if code != http.StatusOK {
			t.Fatalf("%s on %s: status %d: %s", tc.kernel, tc.machine, code, body)
		}
		sched, resp := decodeSchedule(t, body, ddg, tc.machine)
		if resp.Served == "" || resp.Cycles != sched.Length() {
			t.Errorf("response metadata inconsistent: %+v", resp)
		}
		// The schedule must compute the right answer, not merely be legal.
		k, _ := bench.ByName(tc.kernel)
		res, err := sim.Run(sched, k.InitMemory(4))
		if err != nil {
			t.Fatalf("simulating served schedule: %v", err)
		}
		if err := k.Check(res.Memory, 4); err != nil {
			t.Errorf("served schedule computes the wrong answer: %v", err)
		}
	}

	// The same unit again is answered from the schedule cache.
	ddg := ddgFor(t, "vvmul", 4)
	code, body := post(t, ts, "machine=vliw4", ddg)
	if code != http.StatusOK {
		t.Fatalf("repeat request: %d", code)
	}
	_, resp := decodeSchedule(t, body, ddg, "vliw4")
	if !resp.CacheHit {
		t.Error("repeat of an identical unit did not hit the schedule cache")
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)
	// A valid unit padded with # comment lines to one byte past the cap: it
	// parses if and only if nothing caps the body.
	comment := "#" + strings.Repeat(" ", 62) + "\n"
	oversized := (ddg + strings.Repeat(comment, MaxBodyBytes/len(comment)+1))[:MaxBodyBytes+1]

	cases := []struct {
		name, query, body string
		method            string
		want              int
	}{
		{"unknown machine", "machine=quantum9", ddg, "POST", 400},
		{"oversized body", "machine=vliw4", oversized, "POST", 400},
		{"garbage body", "machine=vliw4", "instruction soup", "POST", 400},
		{"bad deadline", "machine=vliw4&deadline=yesterday", ddg, "POST", 400},
		{"bad scheduler", "machine=vliw4&scheduler=oracle", ddg, "POST", 400},
		{"GET not allowed", "machine=vliw4", "", "GET", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/schedule?"+tc.query, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if e := decodeError(t, body); e.Kind != "bad-request" {
				t.Errorf("kind %q, want bad-request", e.Kind)
			}
		})
	}
}

func TestRateLimitSheds(t *testing.T) {
	s := New(Config{RatePerSec: 0.0001, Burst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	code, _ := post(t, ts, "machine=vliw4", ddg)
	if code != http.StatusOK {
		t.Fatalf("first request within burst: %d", code)
	}
	resp, err := http.Post(ts.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeError(t, body); e.Kind != "shed" {
		t.Errorf("shed kind = %q", e.Kind)
	}
	if st := s.StatsSnapshot(); st.Admission.ShedRate != 1 {
		t.Errorf("ShedRate = %d, want 1", st.Admission.ShedRate)
	}
}

func TestQueueFullSheds(t *testing.T) {
	// One queue slot, and a chaos stall that parks the only worker.
	s := New(Config{
		MaxQueue:       1,
		Workers:        1,
		DefaultTimeout: 5 * time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassStall, Stall: 700 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	first := make(chan int, 1)
	go func() { first <- postCode(ts, "machine=vliw4", ddg) }()
	// Wait until the first request holds the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429: %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "shed" {
		t.Errorf("kind = %q, want shed", e.Kind)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("stalled-but-admitted request finished %d, want 200", code)
	}
	if st := s.StatsSnapshot(); st.Admission.ShedQueue != 1 {
		t.Errorf("ShedQueue = %d, want 1", st.Admission.ShedQueue)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	s := New(Config{
		DefaultTimeout: 5 * time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassStall, Stall: 2 * time.Second},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	t0 := time.Now()
	code, body := post(t, ts, "machine=vliw4&deadline=80ms", ddg)
	elapsed := time.Since(t0)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	if e := decodeError(t, body); e.Kind != "deadline" {
		t.Errorf("kind = %q, want deadline", e.Kind)
	}
	// The 2s stall must not hold the response: the deadline cancels it.
	if elapsed > time.Second {
		t.Errorf("deadline response took %v, want well under the 2s stall", elapsed)
	}
	if st := s.StatsSnapshot(); st.Admission.Timeouts == 0 {
		t.Error("deadline expiry not counted in admission stats")
	}
}

func TestDrain(t *testing.T) {
	var logs []string
	s := New(Config{
		DefaultTimeout: 5 * time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassStall, Stall: 500 * time.Millisecond},
		Logf:           func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	inflight := make(chan int, 1)
	go func() { inflight <- postCode(ts, "machine=vliw4", ddg) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	// Draining: new work is rejected with 503 while the old completes.
	deadline = time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body := post(t, ts, "machine=vliw4", ddg)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503: %s", code, body)
	}
	if e := decodeError(t, body); e.Kind != "draining" {
		t.Errorf("kind = %q, want draining", e.Kind)
	}

	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain finished %d, want 200", code)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "final stats") {
			found = true
		}
	}
	if !found {
		t.Error("drain did not flush a final stats snapshot")
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	s := New(Config{
		DefaultTimeout: 10 * time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassStall, Stall: 3 * time.Second},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	go postCode(ts, "machine=vliw4", ddg)
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain reported success with work still in flight past the deadline")
	}
}

func TestPanicMiddleware(t *testing.T) {
	s := New(Config{})
	h := s.recoverer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	e := decodeError(t, rec.Body.Bytes())
	if e.Kind != "panic" || !strings.Contains(e.Message, "handler bug") {
		t.Errorf("error = %+v, want a structured panic report", e)
	}
	if s.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", s.panics.Load())
	}
}

// TestBreakerSkipsAcrossRequests: a rung failing on every request trips its
// breaker; later requests show a breaker-stage attempt instead of paying for
// the doomed rung, and /stats exposes the open breaker.
func TestBreakerSkipsAcrossRequests(t *testing.T) {
	// CacheSize < 0 disables memoization so every request walks the ladder
	// (a cache hit would carry no attempt report to inspect).
	s := New(Config{
		Chaos:     &faultinject.Chaos{Class: faultinject.ChaosPassPanic, Seed: 1},
		Breakers:  robust.BreakerPolicy{Failures: 2, Cooldown: time.Hour},
		CacheSize: -1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	var last scheduleResponse
	for i := 0; i < 3; i++ {
		code, body := post(t, ts, "machine=vliw4", ddg)
		if code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, code, body)
		}
		_, last = decodeSchedule(t, body, ddg, "vliw4")
		if !last.Degraded {
			t.Fatalf("request %d not marked degraded under pass-panic chaos: %+v", i, last)
		}
	}
	// Third request: the poisoned convergent rungs' breakers are open.
	skipped := 0
	for _, a := range last.Attempts {
		if a.Stage == "breaker" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatalf("no breaker-stage attempts on request 3: %+v", last.Attempts)
	}
	open := 0
	for _, b := range s.StatsSnapshot().Breakers {
		if b.State != "closed" {
			open++
		}
	}
	if open == 0 {
		t.Error("/stats shows no open breakers after persistent rung failures")
	}
}

// rungNames joins a ladder's rung names, the part of a ladder tests can
// compare.
func rungNames(ladder []robust.Rung) string {
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.Name
	}
	return strings.Join(names, ">")
}

// TestRequestLadderMatchesSelect: the request path resolves every scheduler
// name, with and without fallback, to exactly the rungs and cache identity
// robust.Select gives, and rejects the names Select rejects. A default
// request keys exactly like a job that leaves the ladder to the engine, so
// stores written under that nil-ladder key keep serving warm hits.
func TestRequestLadderMatchesSelect(t *testing.T) {
	s := New(Config{Seed: 2002})
	m, err := machine.Named("vliw4")
	if err != nil {
		t.Fatal(err)
	}
	g, err := irtext.ParseString(ddgFor(t, "vvmul", 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"convergent", "convergent-tuned", "rawcc", "uas", "pcc", "list", "oracle"} {
		for _, fallback := range []bool{false, true} {
			r := httptest.NewRequest("POST", fmt.Sprintf("/schedule?machine=vliw4&scheduler=%s&fallback=%v", name, fallback), nil)
			req, err := s.parseRequest(r)
			ladder, id, serr := robust.Select(m, name, fallback, 2002)
			if (err == nil) != (serr == nil) {
				t.Errorf("%s fallback=%v: request error %v, Select error %v", name, fallback, err, serr)
				continue
			}
			if err != nil {
				continue
			}
			job := s.jobFor(req, g, nil)
			if got, want := rungNames(job.Opts.Ladder), rungNames(ladder); got != want {
				t.Errorf("%s fallback=%v: job rungs %s, Select rungs %s", name, fallback, got, want)
			}
			if job.LadderID != id {
				t.Errorf("%s fallback=%v: job ladder ID %s, Select ID %s", name, fallback, job.LadderID, id)
			}
		}
	}

	req, err := s.parseRequest(httptest.NewRequest("POST", "/schedule?machine=vliw4", nil))
	if err != nil {
		t.Fatal(err)
	}
	job := s.jobFor(req, g, nil)
	implicit := job
	implicit.Opts.Ladder, implicit.LadderID = nil, ""
	got, ok := s.engine.CacheKey(job)
	want, wantOK := s.engine.CacheKey(implicit)
	if !ok || !wantOK || got != want {
		t.Errorf("default request key %q (cacheable %v), nil-ladder key %q (cacheable %v)", got, ok, want, wantOK)
	}
}

// TestBadSchedulerRejectedBeforeWorkerWait: an unknown scheduler is a prompt
// 400 even while every worker is busy. The request never queues for a
// worker, so it counts as neither completed, failed nor timed out.
func TestBadSchedulerRejectedBeforeWorkerWait(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	grant, cause, _ := s.adm.admit("")
	if grant == nil {
		t.Fatalf("holder not admitted: %s", cause)
	}
	if !s.adm.acquireWorker(grant, nil) {
		t.Fatal("holder got no worker")
	}
	defer grant.release()
	defer s.adm.releaseWorker()

	t0 := time.Now()
	code, body := post(t, ts, "machine=vliw4&scheduler=oracle&deadline=2s", ddgFor(t, "vvmul", 4))
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("bad scheduler answered after %v with every worker busy", elapsed)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	if e := decodeError(t, body); e.Kind != "bad-request" {
		t.Errorf("kind %q, want bad-request", e.Kind)
	}
	if st := s.StatsSnapshot().Admission; st.Completed+st.Failed+st.Timeouts != 0 {
		t.Errorf("rejected request counted: completed %d, failed %d, timeouts %d", st.Completed, st.Failed, st.Timeouts)
	}
}
