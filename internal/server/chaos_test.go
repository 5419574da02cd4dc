package server

// The chaos acceptance suite: schedd under fault injection and concurrent
// load. The contract under test is the ISSUE's acceptance criterion — with
// chaos active and at least 8 concurrent clients, the service returns only
// legal schedules on 200, structured JSON errors otherwise, sheds overload
// explicitly with 429 + Retry-After, and drains cleanly.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
)

// chaosUnit is one request shape the acceptance clients rotate through.
type chaosUnit struct {
	kernel  string
	machine string
	n       int
}

var chaosUnits = []chaosUnit{
	{"vvmul", "vliw4", 4},
	{"fir", "raw4", 4},
	{"yuv", "vliw4", 4},
	{"fir", "vliw2", 2},
}

// checkContract asserts the service contract for one response without
// touching testing.T, so client goroutines can call it. It reports whether
// the request was served (200) and any contract violation.
func checkContract(code int, header http.Header, body []byte, ddg, machineName string) (served bool, err error) {
	if strings.Contains(string(body), "goroutine ") {
		return false, fmt.Errorf("response body leaks a raw panic stack (status %d): %s", code, body)
	}
	decodeErr := func(kind string) error {
		var eb errorBody
		if jerr := json.Unmarshal(body, &eb); jerr != nil || eb.Error.Kind == "" {
			return fmt.Errorf("status %d body is not a structured error (%v): %s", code, jerr, body)
		}
		if eb.Error.Kind != kind {
			return fmt.Errorf("status %d kind = %q, want %q", code, eb.Error.Kind, kind)
		}
		return nil
	}
	switch code {
	case http.StatusOK:
		return true, checkLegal(body, ddg, machineName)
	case http.StatusTooManyRequests:
		if header.Get("Retry-After") == "" {
			return false, fmt.Errorf("429 without Retry-After")
		}
		return false, decodeErr("shed")
	case http.StatusGatewayTimeout:
		return false, decodeErr("deadline")
	case http.StatusServiceUnavailable:
		return false, decodeErr("draining")
	case http.StatusInternalServerError:
		// Allowed only as a structured scheduling failure, never a raw
		// panic escaping the middleware.
		return false, decodeErr("sched-failed")
	default:
		return false, fmt.Errorf("unexpected status %d: %s", code, body)
	}
}

// checkLegal rebuilds the schedule carried by a 200 body against the request's
// own DDG and machine and validates it — the client-side proof of legality.
func checkLegal(body []byte, ddg, machineName string) error {
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("200 body is not a schedule response: %v", err)
	}
	g, err := irtext.ParseString(ddg)
	if err != nil {
		return fmt.Errorf("reparsing request ddg: %v", err)
	}
	m, err := machine.Named(machineName)
	if err != nil {
		return fmt.Errorf("machine %q: %v", machineName, err)
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
		return fmt.Errorf("200 body is not a legal schedule: %v", err)
	}
	return nil
}

// describeFailure renders a failed response for a test log: its status,
// error kind and message, the rung and stage that failed, and every ladder
// attempt, so one failure names its cause.
func describeFailure(code int, body []byte) string {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		return fmt.Sprintf("status %d, body not a structured error (%v): %s", code, err, body)
	}
	e := eb.Error
	var b strings.Builder
	fmt.Fprintf(&b, "status %d kind %q message %q rung %q stage %q, %d attempts",
		code, e.Kind, e.Message, e.Rung, e.Stage, len(e.Attempts))
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, "; %s %.3fms stage %q error %q", a.Rung, a.Ms, a.Stage, a.Error)
	}
	return b.String()
}

// TestChaosAcceptance is the headline acceptance test: a schedd whose every
// convergent rung panics, hammered by 8 concurrent clients mixing machines,
// kernels and deadlines, with admission tight enough to shed.
func TestChaosAcceptance(t *testing.T) {
	const (
		clients    = 8
		perClient  = 8
		maxRetries = 6
	)
	s := New(Config{
		Workers:        4,
		MaxQueue:       8,
		RatePerSec:     60,
		Burst:          6,
		DefaultTimeout: time.Second,
		Chaos:          &faultinject.Chaos{Class: faultinject.ChaosPassPanic, Seed: 7},
		Breakers:       robust.BreakerPolicy{Failures: 3, Cooldown: 50 * time.Millisecond},
		Seed:           2002,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ddgs := make(map[chaosUnit]string)
	for _, u := range chaosUnits {
		ddgs[u] = ddgFor(t, u.kernel, u.n)
	}

	var served, shed, timedOut, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				u := chaosUnits[(c+r)%len(chaosUnits)]
				query := "machine=" + u.machine
				if (c+r)%4 == 3 {
					// Every fourth request carries a hopeless deadline;
					// it must come back as a structured 504, fast.
					query += "&deadline=1ms"
				}
				for attempt := 0; ; attempt++ {
					resp, err := http.Post(ts.URL+"/schedule?"+query, "text/plain", strings.NewReader(ddgs[u]))
					if err != nil {
						t.Errorf("client %d: transport error: %v", c, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					ok, cerr := checkContract(resp.StatusCode, resp.Header, body, ddgs[u], u.machine)
					if cerr != nil {
						t.Errorf("client %d request %d: %v", c, r, cerr)
					}
					switch {
					case ok:
						served.Add(1)
					case resp.StatusCode == http.StatusTooManyRequests:
						shed.Add(1)
						if attempt < maxRetries {
							time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
							continue
						}
					case resp.StatusCode == http.StatusGatewayTimeout:
						timedOut.Add(1)
					default:
						failed.Add(1)
						t.Errorf("client %d request %d (%s) attempt %d failed: %s",
							c, r, query, attempt, describeFailure(resp.StatusCode, body))
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("chaos acceptance: no request was ever served")
	}
	// Shedding must be bounded: overload degrades, it does not take over.
	// With retries honoring Retry-After, at least half of the logical
	// requests must end in service.
	if float64(served.Load()) < 0.5*float64(clients*perClient) {
		t.Errorf("only %d of %d logical requests served (%d sheds, %d timeouts, %d failures)",
			served.Load(), clients*perClient, shed.Load(), timedOut.Load(), failed.Load())
	}
	if failed.Load() > 0 {
		t.Errorf("%d hard scheduling failures under pass-panic chaos; the ladder should always rescue", failed.Load())
	}

	// The stats endpoint must agree that shed accounting happened and no
	// handler ever panicked.
	st := s.StatsSnapshot()
	if st.Panics != 0 {
		t.Errorf("%d handler panics under chaos", st.Panics)
	}
	if st.Admission.ShedRate+st.Admission.ShedQueue != shed.Load() {
		t.Errorf("stats sheds %d+%d, clients saw %d",
			st.Admission.ShedRate, st.Admission.ShedQueue, shed.Load())
	}
	t.Logf("chaos acceptance: served=%d shed=%d timeouts=%d stats=%+v",
		served.Load(), shed.Load(), timedOut.Load(), st.Admission)

	// Graceful drain closes the exercise: in-flight work finishes, new
	// work is rejected, and the drain meets its deadline.
	slow := make(chan int, 1)
	go func() { slow <- postCode(ts, "machine=vliw4", ddgs[chaosUnits[0]]) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-slow; code != http.StatusOK && code != http.StatusServiceUnavailable &&
		code != http.StatusTooManyRequests {
		t.Errorf("request racing the drain got %d", code)
	}
	code, body := post(t, ts, "machine=vliw4", ddgs[chaosUnits[0]])
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: %d, want 503: %s", code, body)
	}
}

// TestChaosClassSweep runs a compact client load against one server per
// chaos class: pipeline poisons and a schedule corruptor. Every response
// must be a legal schedule; the degradation ladder must rescue each class.
func TestChaosClassSweep(t *testing.T) {
	classes := []faultinject.Chaos{
		{Class: faultinject.ChaosPassStall, Seed: 1, Stall: 100 * time.Millisecond},
		{Class: faultinject.ChaosWeightSkew, Seed: 3},
		{Class: faultinject.ChaosDropMemEdge, Seed: 5},
		{Class: faultinject.ChaosRewireArg, Seed: 9},
		{Class: faultinject.ChaosLatencyLiar, Seed: 11},
		{Class: faultinject.ScheduleClasses()[0], Seed: 13},
	}
	for i := range classes {
		chaos := classes[i]
		t.Run(chaos.Class, func(t *testing.T) {
			t.Parallel()
			s := New(Config{
				Workers:        2,
				MaxQueue:       8,
				DefaultTimeout: 2 * time.Second,
				Chaos:          &chaos,
				CacheSize:      -1, // recompute every request: the chaos path is the test
				Seed:           2002,
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			ddgs := make(map[chaosUnit]string)
			for _, u := range chaosUnits[:2] {
				ddgs[u] = ddgFor(t, u.kernel, u.n)
			}
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < 2; r++ {
						u := chaosUnits[(c+r)%2] // vvmul/vliw4 and fir/raw4
						resp, err := http.Post(ts.URL+"/schedule?machine="+u.machine, "text/plain", strings.NewReader(ddgs[u]))
						if err != nil {
							t.Errorf("client %d: %v", c, err)
							return
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						ok, cerr := checkContract(resp.StatusCode, resp.Header, body, ddgs[u], u.machine)
						if cerr != nil {
							t.Errorf("class %s client %d: %v", chaos.Class, c, cerr)
						}
						if !ok {
							t.Errorf("class %s: request not served (status %d): %s", chaos.Class, resp.StatusCode, body)
						}
					}
				}(c)
			}
			wg.Wait()
			if st := s.StatsSnapshot(); st.Panics != 0 {
				t.Errorf("%d handler panics", st.Panics)
			}
		})
	}
}

// TestStatsShape pins the /stats JSON contract the CI smoke step scrapes
// into BENCH_schedd.json: the top-level sections and core counters must
// exist and decode.
func TestStatsShape(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)
	if code, body := post(t, ts, "machine=vliw4", ddg); code != http.StatusOK {
		t.Fatalf("seed request: %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	for _, key := range []string{"uptimeSec", "draining", "panics", "engine", "admission", "breakers"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats missing %q: %s", key, body)
		}
	}
	var adm AdmissionStats
	if err := json.Unmarshal(m["admission"], &adm); err != nil {
		t.Fatal(err)
	}
	if adm.Accepted != 1 || adm.Completed != 1 {
		t.Errorf("admission counters %+v after one served request", adm)
	}
}
