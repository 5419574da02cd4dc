package server

// Tests for the tenant identities per-tenant series carry: the latency
// histogram's dedicated labels, granted by admission.observe against the
// reference tracker they replaced, and the shed counter's labels, which are
// the identities admission charged and so stay bounded under a name flood.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// topKTracker is the per-tenant latency label tracker that metrics kept
// before the slot moved onto tenantState. It stays as the reference
// admission.observe is compared against.
type topKTracker struct {
	mu        sync.Mutex
	k         int
	threshold uint64
	counts    map[string]uint64
	slots     map[string]bool
}

func newTopKTracker(k int, threshold uint64) *topKTracker {
	return &topKTracker{
		k:         k,
		threshold: threshold,
		counts:    make(map[string]uint64),
		slots:     make(map[string]bool),
	}
}

// labelFor returns the histogram label for one observation by tenant: the
// tenant itself once it has earned a slot, the overflow label otherwise.
// The count map is bounded like the admission layer's tenant map, so a
// label-flood attack costs at most maxTrackedTenants counter cells.
func (t *topKTracker) labelFor(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots[tenant] {
		return tenant
	}
	if _, known := t.counts[tenant]; !known && len(t.counts) >= maxTrackedTenants {
		return overflowTenant
	}
	t.counts[tenant]++
	if t.counts[tenant] >= t.threshold && len(t.slots) < t.k {
		t.slots[tenant] = true
		return tenant
	}
	return overflowTenant
}

// finishOne runs one request by tenant through admission to its finish and
// returns the identity it was charged to and its latency label.
func finishOne(t *testing.T, a *admission, tenant string, failed bool) (charged, label string) {
	t.Helper()
	g, charged, cause, _ := a.admit(tenant)
	if g == nil {
		t.Fatalf("tenant %q shed: %s", tenant, cause)
	}
	defer g.release()
	if !a.acquireWorker(g, nil) {
		t.Fatalf("tenant %q: no worker", tenant)
	}
	defer a.releaseWorker()
	return charged, a.observe(g, time.Millisecond, 2*time.Millisecond, failed)
}

// TestTopKTracker pins the slot-granting rules of the bounded-cardinality
// tenant latency histogram: sustained volume earns a dedicated label,
// one-off names stay in overflow, and slots are finite.
func TestTopKTracker(t *testing.T) {
	a := newAdmission(TenantConfig{}, 64, 4, 0, 0, time.Now)
	label := func(tenant string) string {
		_, l := finishOne(t, a, tenant, false)
		return l
	}
	for i := 1; i < topKSlotThreshold; i++ {
		if got := label("hot"); got != overflowTenant {
			t.Fatalf("observation %d of hot: label %q before threshold", i, got)
		}
	}
	if got := label("hot"); got != "hot" {
		t.Fatalf("threshold-crossing observation: label %q, want hot", got)
	}
	if got := label("hot"); got != "hot" {
		t.Fatalf("slot not sticky: %q", got)
	}
	// The remaining slots go to warm1.., then the table is full: the next
	// tenant can never graduate.
	for w := 1; w < topKTenantSlots; w++ {
		for i := 0; i < topKSlotThreshold; i++ {
			label("warm" + strconv.Itoa(w))
		}
	}
	for i := 0; i < 3*topKSlotThreshold; i++ {
		if got := label("late"); got != overflowTenant {
			t.Fatalf("late got label %q with all slots taken", got)
		}
	}
	// Failed requests count toward a slot like completed ones.
	b := newAdmission(TenantConfig{}, 64, 4, 0, 0, time.Now)
	for i := 1; i < topKSlotThreshold; i++ {
		finishOne(t, b, "flaky", i%2 == 0)
	}
	if _, got := finishOne(t, b, "flaky", true); got != "flaky" {
		t.Errorf("failed requests did not count toward a slot: label %q", got)
	}
}

// TestLatencyLabelsMatchTopKTracker: over random request sequences of at
// most maxTrackedTenants identities, the label admission.observe files each
// latency under is the one the reference tracker gives the charged
// identity.
func TestLatencyLabelsMatchTopKTracker(t *testing.T) {
	for _, n := range []int{1, 5, 12, 60, maxTrackedTenants} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			a := newAdmission(TenantConfig{}, 64, 4, 0, 0, time.Now)
			ref := newTopKTracker(topKTenantSlots, topKSlotThreshold)
			var pick func() uint64
			if n > 1 {
				pick = rand.NewZipf(rng, 1.1, 1, uint64(n-1)).Uint64
			} else {
				pick = func() uint64 { return 0 }
			}
			slotted := 0
			for i := 0; i < 3000; i++ {
				tenant := "" // identity 0 is the headerless client
				if id := pick(); id > 0 {
					tenant = "t" + strconv.FormatUint(id, 10)
				}
				charged, got := finishOne(t, a, tenant, rng.Intn(5) == 0)
				if want := ref.labelFor(charged); got != want {
					t.Fatalf("n=%d seed=%d request %d by %q: label %q, reference %q", n, seed, i, tenant, got, want)
				}
				if got != overflowTenant {
					slotted++
				}
			}
			if n >= topKTenantSlots && slotted == 0 {
				t.Errorf("n=%d seed=%d: no tenant ever earned a slot; the sequence tests nothing", n, seed)
			}
		}
	}
}

// TestShedLabelsBounded floods the global token bucket with distinct
// tenant names past maxTrackedTenants, across two classes. The shed
// counter's tenant labels are the identities admission charged: at most
// maxTrackedTenants names plus one overflow identity per class.
func TestShedLabelsBounded(t *testing.T) {
	const names = maxTrackedTenants + 200
	tc := TenantConfig{
		Classes: []TenantClass{{Name: "odd"}},
		Tenants: map[string]string{},
	}
	for i := 1; i < names; i += 2 {
		tc.Tenants["n"+strconv.Itoa(i)] = "odd"
	}
	// One token that never refills: every request after the first is
	// shed by the global bucket.
	s := New(Config{Seed: 2002, RatePerSec: 1e-9, Burst: 1, Tenancy: tc})
	h := s.Handler()
	shed := 0
	for i := 0; i < names; i++ {
		req := httptest.NewRequest(http.MethodPost, "/schedule?machine=vliw4", strings.NewReader(""))
		req.Header.Set("X-Schedd-Tenant", "n"+strconv.Itoa(i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusTooManyRequests {
			shed++
			if cause, tenant, err := shedOf(rec.Body.Bytes()); err != nil || cause != ShedCauseRate || tenant != "n"+strconv.Itoa(i) {
				t.Fatalf("request %d: 429 body cause %q tenant %q (%v), want rate and the client's own name", i, cause, tenant, err)
			}
		}
	}
	if shed < names-1 {
		t.Fatalf("only %d of %d requests shed", shed, names)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rows := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "schedd_tenant_shed_total{") {
			rows[line[:strings.LastIndexByte(line, ' ')]] = true
		}
	}
	classes := len(s.adm.stats().Classes)
	if len(rows) > maxTrackedTenants+classes {
		t.Errorf("%d shed label rows for %d shed names, want at most %d tracked + %d overflow",
			len(rows), shed, maxTrackedTenants, classes)
	}
	for _, c := range []string{DefaultClassName, "odd"} {
		if !rows[`schedd_tenant_shed_total{tenant="`+overflowTenant+`:`+c+`",cause="rate"}`] {
			t.Errorf("no shed row for class %s's overflow identity", c)
		}
	}
}
