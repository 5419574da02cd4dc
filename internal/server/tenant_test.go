package server

// Unit tests for the multi-tenant QoS layer: class-spec parsing, the
// deficit-round-robin dequeue order, per-tenant buckets and quotas, the
// exactly-once grant release (including under a handler panic), and the
// backward-compatible default class.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseClassSpec(t *testing.T) {
	good := []struct {
		spec string
		want TenantClass
	}{
		{"gold", TenantClass{Name: "gold"}},
		{"gold:weight=8", TenantClass{Name: "gold", Weight: 8}},
		{"b.ronze-2:weight=2,queue=16,rate=10.5,burst=20,inflight=4",
			TenantClass{Name: "b.ronze-2", Weight: 2, MaxQueue: 16, RatePerSec: 10.5, Burst: 20, MaxInflight: 4}},
	}
	for _, tc := range good {
		got, err := ParseClassSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseClassSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseClassSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	bad := []string{
		"", ":weight=1", "gold:weight", "gold:weight=", "gold:weight=-1",
		"gold:weight=x", "gold:rate=-2", "gold:frobs=3", "bad name:weight=1",
		strings.Repeat("x", 65),
	}
	for _, spec := range bad {
		if _, err := ParseClassSpec(spec); err == nil {
			t.Errorf("ParseClassSpec(%q) accepted", spec)
		}
	}
}

func TestValidateTenancy(t *testing.T) {
	ok := TenantConfig{
		Classes: []TenantClass{{Name: "gold", Weight: 8}, {Name: "bronze"}},
		Tenants: map[string]string{"vip": "gold", "misc": "default"},
	}
	if err := ValidateTenancy(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := ValidateTenancy(TenantConfig{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	bad := []TenantConfig{
		{Classes: []TenantClass{{Name: "gold"}, {Name: "gold"}}},
		{Classes: []TenantClass{{Name: "has space"}}},
		{Classes: []TenantClass{{Name: "gold", Weight: -1}}},
		{Tenants: map[string]string{"vip": "nosuch"}},
		{Tenants: map[string]string{"bad name": "default"}},
		{Classes: []TenantClass{{Name: "gold"}}, DefaultClass: "nosuch"},
	}
	for i, tc := range bad {
		if err := ValidateTenancy(tc); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, tc)
		}
	}
}

func TestValidTenantName(t *testing.T) {
	for _, s := range []string{"a", "acme-corp", "A.B_c-9", strings.Repeat("x", 64)} {
		if !ValidTenantName(s) {
			t.Errorf("ValidTenantName(%q) = false", s)
		}
	}
	for _, s := range []string{"", " ", "a b", "a/b", "a\nb", "é", strings.Repeat("x", 65)} {
		if ValidTenantName(s) {
			t.Errorf("ValidTenantName(%q) = true", s)
		}
	}
}

// qosAdmission builds an admission with a gold(weight 3) and bronze(weight
// 1) class for the DRR tests.
func qosAdmission(workers int) *admission {
	return newAdmission(TenantConfig{
		Classes: []TenantClass{
			{Name: "gold", Weight: 3, MaxQueue: 64},
			{Name: "bronze", Weight: 1, MaxQueue: 64},
		},
		Tenants: map[string]string{"vip": "gold", "bulk": "bronze"},
	}, 64, workers, 0, 0, time.Now)
}

// TestDRRDequeueOrder pins the weighted-fair interleaving: with gold at
// weight 3 and bronze at weight 1 both backlogged, grants go
// G G G B G G G B ... and the bronze tail drains once gold empties —
// no class ever starves.
func TestDRRDequeueOrder(t *testing.T) {
	a := qosAdmission(1)
	gold, bronze := a.byClass["gold"], a.byClass["bronze"]

	// Occupy the only worker slot, then backlog both classes directly.
	a.mu.Lock()
	a.free = 0
	enqueue := func(c *classState, n int) []*waiter {
		ws := make([]*waiter, n)
		for i := range ws {
			ws[i] = &waiter{ready: make(chan struct{})}
			c.waiters = append(c.waiters, ws[i])
			a.waiting++
		}
		return ws
	}
	gws := enqueue(gold, 8)
	bws := enqueue(bronze, 4)
	a.mu.Unlock()

	label := func(w *waiter) string {
		for _, g := range gws {
			if g == w {
				return "G"
			}
		}
		for _, b := range bws {
			if b == w {
				return "B"
			}
		}
		return "?"
	}
	var order []string
	for i := 0; i < 12; i++ {
		before := make(map[*waiter]bool)
		for _, w := range append(append([]*waiter{}, gws...), bws...) {
			before[w] = w.state == 1
		}
		a.releaseWorker()
		granted := 0
		for _, w := range append(append([]*waiter{}, gws...), bws...) {
			if w.state == 1 && !before[w] {
				order = append(order, label(w))
				granted++
			}
		}
		if granted != 1 {
			t.Fatalf("release %d granted %d waiters, want exactly 1", i, granted)
		}
	}
	want := "G G G B G G G B G G B B"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("DRR grant order:\n got %s\nwant %s", got, want)
	}
	// FIFO within each class.
	for i := 1; i < len(gws); i++ {
		if gws[i-1].state != 1 || gws[i].state != 1 {
			t.Fatalf("gold waiter %d not granted", i)
		}
	}
}

// TestDRRSkipsAbandonedWaiters: a waiter whose request gave up (deadline)
// must not consume a grant or deficit.
func TestDRRSkipsAbandonedWaiters(t *testing.T) {
	a := qosAdmission(1)
	gold := a.byClass["gold"]
	a.mu.Lock()
	a.free = 0
	w1 := &waiter{ready: make(chan struct{}), state: 2} // abandoned
	w2 := &waiter{ready: make(chan struct{})}
	gold.waiters = append(gold.waiters, w1, w2)
	a.waiting += 2
	a.mu.Unlock()

	a.releaseWorker()
	if w1.state != 2 {
		t.Error("abandoned waiter resurrected")
	}
	if w2.state != 1 {
		t.Error("live waiter behind an abandoned one not granted")
	}
}

func TestPerTenantRateBucket(t *testing.T) {
	a := newAdmission(TenantConfig{
		Classes: []TenantClass{{Name: "metered", RatePerSec: 0.0001, Burst: 1, MaxQueue: 8}},
		Tenants: map[string]string{"t1": "metered", "t2": "metered"},
	}, 64, 4, 0, 0, time.Now)

	if g, cause, _ := a.admit("t1"); g == nil {
		t.Fatalf("t1 first admit shed: %s", cause)
	}
	g, cause, retry := a.admit("t1")
	if g != nil || cause != ShedCauseTenantRate {
		t.Fatalf("t1 second admit: grant=%v cause=%q, want tenant-rate shed", g != nil, cause)
	}
	if retry <= 0 {
		t.Error("tenant-rate shed carries no Retry-After hint")
	}
	// t2 has its own bucket: t1 exhausting its tokens must not shed t2.
	if g, cause, _ := a.admit("t2"); g == nil {
		t.Fatalf("t2 collateral shed: %s", cause)
	}
	st := a.stats()
	if st.ShedRate != 1 {
		t.Errorf("ShedRate = %d, want 1", st.ShedRate)
	}
	for _, ts := range st.Tenants {
		if ts.Tenant == "t2" && ts.ShedRate != 0 {
			t.Errorf("t2 charged for t1's bucket: %+v", ts)
		}
	}
}

func TestPerTenantInflightQuota(t *testing.T) {
	a := newAdmission(TenantConfig{
		Classes: []TenantClass{{Name: "ltd", MaxInflight: 2, MaxQueue: 16}},
		Tenants: map[string]string{"greedy": "ltd", "modest": "ltd"},
	}, 64, 8, 0, 0, time.Now)

	g1, _, _ := a.admit("greedy")
	g2, _, _ := a.admit("greedy")
	if g1 == nil || g2 == nil {
		t.Fatal("admits within quota shed")
	}
	g3, cause, _ := a.admit("greedy")
	if g3 != nil || cause != ShedCauseQuota {
		t.Fatalf("over-quota admit: grant=%v cause=%q, want quota shed", g3 != nil, cause)
	}
	// The quota is per tenant, not per class: modest is unaffected.
	if g, cause, _ := a.admit("modest"); g == nil {
		t.Fatalf("modest shed by greedy's quota: %s", cause)
	}
	g1.release()
	if g, cause, _ := a.admit("greedy"); g == nil {
		t.Fatalf("admit after release shed: %s", cause)
	}
	if st := a.stats(); st.ShedQuota != 1 {
		t.Errorf("ShedQuota = %d, want 1", st.ShedQuota)
	}
}

func TestClassQueueBoundSheds(t *testing.T) {
	a := newAdmission(TenantConfig{
		Classes: []TenantClass{{Name: "small", MaxQueue: 1}, {Name: "big", MaxQueue: 8}},
		Tenants: map[string]string{"s1": "small", "s2": "small", "b1": "big"},
	}, 64, 4, 0, 0, time.Now)

	if g, cause, _ := a.admit("s1"); g == nil {
		t.Fatalf("s1 shed: %s", cause)
	}
	g, cause, _ := a.admit("s2")
	if g != nil || cause != ShedCauseQueue {
		t.Fatalf("small-class overflow: grant=%v cause=%q, want queue shed", g != nil, cause)
	}
	// The shed isolates to the full class.
	if g, cause, _ := a.admit("b1"); g == nil {
		t.Fatalf("b1 collateral shed: %s", cause)
	}
}

// TestGrantReleaseIdempotent: double release must not free two slots.
func TestGrantReleaseIdempotent(t *testing.T) {
	a := newAdmission(TenantConfig{}, 4, 4, 0, 0, time.Now)
	g, _, _ := a.admit("")
	if g == nil {
		t.Fatal("admit failed")
	}
	if d := a.depth(); d != 1 {
		t.Fatalf("depth = %d after admit, want 1", d)
	}
	g.release()
	g.release()
	g.release()
	if d := a.depth(); d != 0 {
		t.Fatalf("depth = %d after triple release, want 0 (slot freed more than once?)", d)
	}
}

// TestTenantOverflowBucket: past the tracked-tenant cap, unseen tenants
// share a per-class overflow identity instead of growing the map.
func TestTenantOverflowBucket(t *testing.T) {
	a := newAdmission(TenantConfig{}, 64, 4, 0, 0, time.Now)
	a.mu.Lock()
	for i := 0; i < maxTrackedTenants; i++ {
		a.tenantFor("filler-" + strconv.Itoa(i))
	}
	n := len(a.tenants)
	t1 := a.tenantFor("straggler-1")
	t2 := a.tenantFor("straggler-2")
	after := len(a.tenants)
	a.mu.Unlock()
	if n != maxTrackedTenants {
		t.Fatalf("tracked %d tenants, want %d", n, maxTrackedTenants)
	}
	if t1 != t2 || !strings.HasPrefix(t1.name, overflowTenant) {
		t.Errorf("stragglers got distinct states %q/%q, want a shared overflow bucket", t1.name, t2.name)
	}
	if after != maxTrackedTenants+1 {
		t.Errorf("tenant map grew to %d, want cap+1 overflow entry", after)
	}
}

// TestPanicReleasesQueueSlotExactlyOnce is the regression test for the
// release-leak risk: a handler panic after admission must free the queue
// slot (via the deferred idempotent release, before the recovery middleware
// answers), and free it exactly once — the next request on a MaxQueue=1
// server must be admitted, not shed.
func TestPanicReleasesQueueSlotExactlyOnce(t *testing.T) {
	s := New(Config{MaxQueue: 1, Workers: 1, Seed: 2002, Logf: func(string, ...any) {}})
	boom := true
	s.testHookPostAdmit = func() {
		if boom {
			panic("post-admission handler bug")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	code, body := post(t, ts, "machine=vliw4", ddg)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d, want 500: %s", code, body)
	}
	if e := decodeError(t, body); e.Kind != "panic" {
		t.Fatalf("kind = %q, want panic", e.Kind)
	}
	if d := s.adm.depth(); d != 0 {
		t.Fatalf("queue depth %d after panic, want 0: the slot leaked", d)
	}
	// The single queue slot must still be usable — and only once.
	boom = false
	if code, body := post(t, ts, "machine=vliw4", ddg); code != http.StatusOK {
		t.Fatalf("request after panic: %d, want 200 (leaked slot?): %s", code, body)
	}
	if s.adm.depth() != 0 {
		t.Fatalf("queue depth %d after served request, want 0", s.adm.depth())
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
}

// TestTenantHTTPValidation: malformed tenant identities are structured 400s
// whether they arrive by header or query, and never reach admission.
func TestTenantHTTPValidation(t *testing.T) {
	s := New(Config{Seed: 2002, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	for _, bad := range []string{"has space", strings.Repeat("x", 65), "a/b", "%25"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/schedule?machine=vliw4", strings.NewReader(ddg))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Schedd-Tenant", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400: %s", bad, resp.StatusCode, body)
			continue
		}
		if e := decodeError(t, body); e.Kind != "bad-request" {
			t.Errorf("tenant %q: kind %q, want bad-request", bad, e.Kind)
		}
	}
	if st := s.StatsSnapshot(); st.Admission.Accepted != 0 {
		t.Errorf("malformed tenants charged admission: %+v", st.Admission)
	}
	// Query fallback works for valid names.
	code, body := post(t, ts, "machine=vliw4&tenant=acme", ddg)
	if code != http.StatusOK {
		t.Fatalf("?tenant=acme: %d: %s", code, body)
	}
	if got := attribution(t, body); got.Tenant != "acme" {
		t.Errorf("response does not attribute the tenant: %s", body)
	}
}

// attribution decodes the tenant and class a 200 body attributes the
// request to.
func attribution(t *testing.T, body []byte) (a struct{ Tenant, Class string }) {
	t.Helper()
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("decode response: %v: %.300s", err, body)
	}
	return a
}

// TestTenantBackwardCompatDefault: with tenancy configured, a request
// without a tenant header lands in the default class under the anonymous
// identity and serves exactly like before.
func TestTenantBackwardCompatDefault(t *testing.T) {
	s := New(Config{
		Seed: 2002,
		Tenancy: TenantConfig{
			Classes: []TenantClass{{Name: "gold", Weight: 8, MaxQueue: 8}},
			Tenants: map[string]string{"vip": "gold"},
		},
		Logf: func(string, ...any) {},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ddg := ddgFor(t, "vvmul", 4)

	code, body := post(t, ts, "machine=vliw4", ddg)
	if code != http.StatusOK {
		t.Fatalf("headerless request: %d: %s", code, body)
	}
	if got := attribution(t, body); got.Tenant != AnonymousTenant || got.Class != DefaultClassName {
		t.Errorf("headerless request not attributed to %s/%s: %.300s", AnonymousTenant, DefaultClassName, body)
	}
	// An unknown (unassigned) tenant also lands in the default class but
	// keeps its own accounting row.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/schedule?machine=vliw4", strings.NewReader(ddg))
	req.Header.Set("X-Schedd-Tenant", "stranger")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown tenant: %d: %s", resp.StatusCode, body2)
	}
	if got := attribution(t, body2); got.Tenant != "stranger" || got.Class != DefaultClassName {
		t.Errorf("unknown tenant not in default class: %.300s", body2)
	}

	st := s.StatsSnapshot()
	names := map[string]string{}
	for _, ts := range st.Admission.Tenants {
		names[ts.Tenant] = ts.Class
	}
	if names[AnonymousTenant] != DefaultClassName || names["stranger"] != DefaultClassName {
		t.Errorf("tenant rows = %v, want anonymous and stranger in default", names)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
