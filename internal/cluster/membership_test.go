package cluster

// Live-membership tests: admin API auth and epoch preconditions, join/leave
// mutations with quorum recomputation, the graceful-leave hot-entry push, the
// signed previous-owner hint on forwarded requests, and a fuzz harness over
// the whole admin surface.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/irtext"
	"repro/internal/server"
	"repro/internal/store"
)

// peerFake is a schedd stand-in that also speaks the peer surfaces: it
// captures the peer-hint headers arriving on /schedule, serves a scripted
// /cache/hot set, and records /cache PUTs pushed at it.
type peerFake struct {
	ts   *httptest.Server
	name string

	mu       sync.Mutex
	hintHdrs [][2]string     // captured (X-Schedd-Peer, X-Schedd-Peer-Sig) pairs
	hot      []*store.Record // served on GET /cache/hot
	hotAuth  string          // last peer key presented on /cache/hot
	putKeys  []string        // URL key suffixes of received PUT /cache/{key}
	putAuth  []string        // peer keys presented on those PUTs
}

func newPeerFake(t *testing.T) *peerFake {
	f := &peerFake{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.hintHdrs = append(f.hintHdrs, [2]string{
			r.Header.Get(server.PeerHeader), r.Header.Get(server.PeerSigHeader)})
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served":"fake","shard":%q}`, f.name)
	})
	mux.HandleFunc("/cache/", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/hot"):
			f.mu.Lock()
			f.hotAuth = r.Header.Get(server.PeerKeyHeader)
			recs := f.hot
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(recs)
		case r.Method == http.MethodPut:
			io.Copy(io.Discard, r.Body)
			f.mu.Lock()
			f.putKeys = append(f.putKeys, strings.TrimPrefix(r.URL.Path, "/cache/"))
			f.putAuth = append(f.putAuth, r.Header.Get(server.PeerKeyHeader))
			f.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "unexpected", http.StatusBadRequest)
		}
	})
	f.ts = httptest.NewServer(mux)
	u, _ := url.Parse(f.ts.URL)
	f.name = u.Host
	t.Cleanup(f.ts.Close)
	return f
}

func (f *peerFake) puts() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.putKeys...)
}

// adminDo sends one admin API request and decodes the response body.
func adminDo(t *testing.T, gw *httptest.Server, method, path, key string, body []byte) (int, map[string]json.RawMessage) {
	t.Helper()
	req, err := http.NewRequest(method, gw.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(AdminKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("%s %s: decoding body: %v", method, path, err)
	}
	return resp.StatusCode, m
}

func errKind(t *testing.T, m map[string]json.RawMessage) string {
	t.Helper()
	var e struct {
		Kind string `json:"kind"`
	}
	if raw, ok := m["error"]; ok {
		json.Unmarshal(raw, &e)
	}
	return e.Kind
}

func membershipOf(t *testing.T, m map[string]json.RawMessage) Membership {
	t.Helper()
	var mem Membership
	if raw, ok := m["membership"]; ok {
		if err := json.Unmarshal(raw, &mem); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// TestMembershipSignature: the signed fleet view verifies under the right
// key and fails under tampering of any bound field.
func TestMembershipSignature(t *testing.T) {
	m := Membership{Epoch: 7, Shards: []string{"a:1", "b:1"}}
	m.Signature = signMembership("k", m.Epoch, m.Shards)
	if !VerifyMembership("k", m) {
		t.Fatal("authentic membership did not verify")
	}
	for _, tamper := range []func(Membership) Membership{
		func(m Membership) Membership { m.Epoch++; return m },
		func(m Membership) Membership { m.Shards = []string{"a:1", "evil:1"}; return m },
		func(m Membership) Membership { m.Signature = strings.Repeat("0", 64); return m },
	} {
		if VerifyMembership("k", tamper(m)) {
			t.Error("tampered membership verified")
		}
	}
	if VerifyMembership("other", m) {
		t.Error("membership verified under the wrong key")
	}
}

// TestAdminAuth: without -admin-key the whole surface answers 403 disabled;
// with it, a missing or wrong key is a 401 and the right key works.
func TestAdminAuth(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)

	locked := newTestGateway(t, Config{Shards: []string{a.name, b.name}, ProbeEvery: time.Hour})
	gw := httptest.NewServer(locked.Handler())
	defer gw.Close()
	code, m := adminDo(t, gw, http.MethodGet, "/admin/shards", "whatever", nil)
	if code != http.StatusForbidden || errKind(t, m) != "disabled" {
		t.Fatalf("no admin key: got %d kind=%q, want 403 disabled", code, errKind(t, m))
	}

	g := newTestGateway(t, Config{Shards: []string{a.name, b.name}, AdminKey: "adm", ProbeEvery: time.Hour})
	gw2 := httptest.NewServer(g.Handler())
	defer gw2.Close()
	code, m = adminDo(t, gw2, http.MethodGet, "/admin/shards", "wrong", nil)
	if code != http.StatusUnauthorized || errKind(t, m) != "unauthorized" {
		t.Fatalf("wrong key: got %d kind=%q, want 401 unauthorized", code, errKind(t, m))
	}
	code, m = adminDo(t, gw2, http.MethodGet, "/admin/shards", "adm", nil)
	if code != http.StatusOK {
		t.Fatalf("right key: got %d", code)
	}
	mem := membershipOf(t, m)
	if mem.Epoch != 0 || len(mem.Shards) != 2 {
		t.Fatalf("initial membership = %+v", mem)
	}
	if !VerifyMembership("adm", mem) {
		t.Fatal("published membership signature did not verify")
	}
}

// TestAdminJoinLeave drives the full mutation lifecycle: epoch
// preconditions, duplicate and unknown shards, quorum recomputation, and the
// last-shard guard.
func TestAdminJoinLeave(t *testing.T) {
	fleet := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	names := []string{fleet[0].name, fleet[1].name, fleet[2].name}
	g := newTestGateway(t, Config{Shards: names, AdminKey: "adm", ProbeEvery: time.Hour})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	joinBody := func(addr string, epoch uint64) []byte {
		b, _ := json.Marshal(map[string]any{"addr": addr, "epoch": epoch})
		return b
	}

	// Malformed joins: no body, bad JSON, missing addr, missing epoch, bad addr.
	for _, body := range [][]byte{nil, []byte("{"), []byte(`{"epoch":0}`),
		[]byte(`{"addr":"x:1"}`), []byte(`{"addr":"ftp://x:1","epoch":0}`)} {
		code, m := adminDo(t, gw, http.MethodPost, "/admin/shards", "adm", body)
		if code != http.StatusBadRequest {
			t.Fatalf("malformed join %q: got %d kind=%q, want 400", body, code, errKind(t, m))
		}
	}

	// A real join at the current epoch: member appears, epoch bumps, quorum
	// grows to the new majority (4 shards -> 3).
	joiner := newFakeShard(t)
	code, m := adminDo(t, gw, http.MethodPost, "/admin/shards", "adm", joinBody(joiner.name, 0))
	if code != http.StatusOK {
		t.Fatalf("join: got %d kind=%q", code, errKind(t, m))
	}
	mem := membershipOf(t, m)
	if mem.Epoch != 1 || len(mem.Shards) != 4 || mem.Quorum != 3 {
		t.Fatalf("post-join membership = %+v, want epoch 1, 4 shards, quorum 3", mem)
	}
	if !VerifyMembership("adm", mem) {
		t.Fatal("post-join membership signature did not verify")
	}

	// Replaying the same join: its epoch precondition is now stale.
	code, m = adminDo(t, gw, http.MethodPost, "/admin/shards", "adm", joinBody(joiner.name, 0))
	if code != http.StatusConflict || errKind(t, m) != "epoch-conflict" {
		t.Fatalf("replayed join: got %d kind=%q, want 409 epoch-conflict", code, errKind(t, m))
	}
	// Same join at the fresh epoch: the shard is already a member.
	code, m = adminDo(t, gw, http.MethodPost, "/admin/shards", "adm", joinBody(joiner.name, 1))
	if code != http.StatusConflict || errKind(t, m) != "duplicate" {
		t.Fatalf("duplicate join: got %d kind=%q, want 409 duplicate", code, errKind(t, m))
	}

	// Leaves: epoch required, unknown shard 404, stale epoch 409.
	code, m = adminDo(t, gw, http.MethodDelete, "/admin/shards/"+names[0], "adm", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("leave without epoch: got %d", code)
	}
	code, m = adminDo(t, gw, http.MethodDelete, "/admin/shards/nobody:1?epoch=1", "adm", nil)
	if code != http.StatusNotFound {
		t.Fatalf("leave of unknown shard: got %d", code)
	}
	code, m = adminDo(t, gw, http.MethodDelete, "/admin/shards/"+names[0]+"?epoch=0", "adm", nil)
	if code != http.StatusConflict || errKind(t, m) != "epoch-conflict" {
		t.Fatalf("stale-epoch leave: got %d kind=%q", code, errKind(t, m))
	}
	code, m = adminDo(t, gw, http.MethodDelete, "/admin/shards/"+names[0]+"?epoch=1", "adm", nil)
	if code != http.StatusOK {
		t.Fatalf("leave: got %d kind=%q", code, errKind(t, m))
	}
	mem = membershipOf(t, m)
	if mem.Epoch != 2 || len(mem.Shards) != 3 || mem.Quorum != 2 {
		t.Fatalf("post-leave membership = %+v, want epoch 2, 3 shards, quorum 2", mem)
	}

	// Shrink to one member; removing the last is refused.
	epoch := mem.Epoch
	for _, victim := range []string{names[1], names[2]} {
		code, m = adminDo(t, gw, http.MethodDelete,
			fmt.Sprintf("/admin/shards/%s?epoch=%d", victim, epoch), "adm", nil)
		if code != http.StatusOK {
			t.Fatalf("leave %s: got %d kind=%q", victim, code, errKind(t, m))
		}
		epoch = membershipOf(t, m).Epoch
	}
	code, m = adminDo(t, gw, http.MethodDelete,
		fmt.Sprintf("/admin/shards/%s?epoch=%d", joiner.name, epoch), "adm", nil)
	if code != http.StatusConflict {
		t.Fatalf("removing the last shard: got %d, want 409", code)
	}

	st := g.StatsSnapshot()
	if st.Joins != 1 || st.Leaves != 3 {
		t.Errorf("churn counters joins=%d leaves=%d, want 1 and 3", st.Joins, st.Leaves)
	}
	if st.Membership.Epoch != 4 {
		t.Errorf("final epoch %d, want 4", st.Membership.Epoch)
	}
}

// TestGracefulLeaveHotPush: a graceful leave fetches the departing shard's
// hottest records (authenticated by the cluster peer key) and PUTs each to a
// surviving owner.
func TestGracefulLeaveHotPush(t *testing.T) {
	fleet := []*peerFake{newPeerFake(t), newPeerFake(t), newPeerFake(t)}
	names := []string{fleet[0].name, fleet[1].name, fleet[2].name}
	g := newTestGateway(t, Config{
		Shards: names, AdminKey: "adm", PeerKey: "cluster-k",
		RebalanceK: 8, ProbeEvery: time.Hour,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// The leaver's hot set: records whose embedded graphs name their new
	// owners through the post-leave ring.
	leaver := fleet[0]
	for i, kn := range []string{"vvmul", "fir", "yuv"} {
		k, ok := bench.ByName(kn)
		if !ok {
			t.Fatalf("%s not registered", kn)
		}
		key := bytes.Repeat([]byte{byte(i + 1)}, 32)
		leaver.hot = append(leaver.hot, &store.Record{
			Key: key, Machine: "vliw4", Graph: []byte(irtext.String(k.Build(6))),
		})
	}

	code, m := adminDo(t, gw, http.MethodDelete, "/admin/shards/"+leaver.name+"?epoch=0", "adm", nil)
	if code != http.StatusOK {
		t.Fatalf("leave: got %d kind=%q", code, errKind(t, m))
	}
	var resp struct {
		Pushed     int `json:"pushed"`
		PushErrors int `json:"pushErrors"`
	}
	for k, raw := range m {
		switch k {
		case "pushed":
			json.Unmarshal(raw, &resp.Pushed)
		case "pushErrors":
			json.Unmarshal(raw, &resp.PushErrors)
		}
	}
	if resp.Pushed != 3 || resp.PushErrors != 0 {
		t.Fatalf("pushed=%d pushErrors=%d, want 3 and 0", resp.Pushed, resp.PushErrors)
	}
	leaver.mu.Lock()
	hotAuth := leaver.hotAuth
	leaver.mu.Unlock()
	if hotAuth != "cluster-k" {
		t.Errorf("hot fetch presented peer key %q", hotAuth)
	}
	total := 0
	for _, f := range fleet[1:] {
		for _, auth := range func() []string { f.mu.Lock(); defer f.mu.Unlock(); return append([]string(nil), f.putAuth...) }() {
			if auth != "cluster-k" {
				t.Errorf("push to %s presented peer key %q", f.name, auth)
			}
		}
		total += len(f.puts())
	}
	if got := len(leaver.puts()); got != 0 {
		t.Errorf("leaver received %d pushes of its own records", got)
	}
	if total != 3 {
		t.Errorf("survivors received %d pushes, want 3", total)
	}
	if st := g.StatsSnapshot(); st.HotPushed != 3 {
		t.Errorf("hotPushed counter = %d, want 3", st.HotPushed)
	}
}

// TestPeerHintStamping: after the owner of a request's keyspace segment
// leaves, the forwarded request carries the previous owner's base URL plus a
// signature that verifies under the cluster peer key.
func TestPeerHintStamping(t *testing.T) {
	fleet := []*peerFake{newPeerFake(t), newPeerFake(t), newPeerFake(t)}
	byName := map[string]*peerFake{}
	names := make([]string, len(fleet))
	for i, f := range fleet {
		names[i] = f.name
		byName[f.name] = f
	}
	g := newTestGateway(t, Config{
		Shards: names, AdminKey: "adm", PeerKey: "cluster-k",
		ProbeEvery: 20 * time.Millisecond,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	ddg := testDDG(t)
	owner := primaryFor(t, g, ddg)

	// Steady state: no membership change has happened, so no hint rides.
	resp, err := http.Post(gw.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if st := g.StatsSnapshot(); st.PeerHints != 0 {
		t.Fatalf("steady state stamped %d hints", st.PeerHints)
	}

	// The owner leaves; the segment's new owner must be told where the
	// record used to live.
	code, m := adminDo(t, gw, http.MethodDelete, "/admin/shards/"+owner+"?epoch=0", "adm", nil)
	if code != http.StatusOK {
		t.Fatalf("leave: got %d kind=%q", code, errKind(t, m))
	}
	newOwner := primaryFor(t, g, ddg)
	if newOwner == owner {
		t.Fatal("ownership did not change after the owner left")
	}
	resp, err = http.Post(gw.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-leave request: %d", resp.StatusCode)
	}

	recv := byName[newOwner]
	recv.mu.Lock()
	hdrs := append([][2]string(nil), recv.hintHdrs...)
	recv.mu.Unlock()
	if len(hdrs) == 0 {
		t.Fatalf("new owner %s received no forwarded request", newOwner)
	}
	last := hdrs[len(hdrs)-1]
	wantBase := byName[owner].ts.URL
	if last[0] != wantBase {
		t.Fatalf("hint names %q, want departed owner %q", last[0], wantBase)
	}
	if want := server.SignPeerHint("cluster-k", last[0]); last[1] != want {
		t.Fatalf("hint signature %q does not verify", last[1])
	}
	if st := g.StatsSnapshot(); st.PeerHints == 0 {
		t.Error("peerHints counter not incremented")
	}
}

// errRT refuses every request instantly: the fuzz gateway must never touch
// the network, and a join's synchronous probe must not hang on DNS for a
// fuzzer-chosen hostname.
type errRT struct{}

func (errRT) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("no network under fuzz")
}

// FuzzAdminMembership throws arbitrary methods, path suffixes, bodies and
// keys at the admin API. The invariant: every response is one of the
// documented client-error or success statuses — never a panic, never a 500.
func FuzzAdminMembership(f *testing.F) {
	f.Add(uint8(1), "", []byte(`{"addr":"x:1","epoch":0}`), true)        // well-formed join
	f.Add(uint8(1), "", []byte(``), true)                                // empty body
	f.Add(uint8(1), "", []byte(`{"addr":"a:1","epoch":0}`), true)        // duplicate member
	f.Add(uint8(1), "", []byte(`{"addr":"x:1","epoch":99}`), true)       // stale epoch
	f.Add(uint8(1), "", []byte(`{"addr":"://bad url","epoch":0}`), true) // malformed addr
	f.Add(uint8(2), "a:1?epoch=0", []byte(nil), true)                    // well-formed leave
	f.Add(uint8(2), "a:1?epoch=banana", []byte(nil), true)               // bad epoch
	f.Add(uint8(2), "%zz", []byte(nil), true)                            // undecodable escape
	f.Add(uint8(0), "", []byte(nil), false)                              // wrong admin key
	f.Add(uint8(3), "", []byte(nil), true)                               // bare PUT

	f.Fuzz(func(t *testing.T, methodSel uint8, suffix string, body []byte, goodKey bool) {
		g, err := NewGateway(Config{
			Shards:    []string{"a:1", "b:1"},
			AdminKey:  "adm",
			Transport: errRT{},
			Logf:      func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Never Start()ed: no probe loop, and the stub transport guarantees
		// the join handler's synchronous probe fails instantly.
		method := []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut}[methodSel%4]
		target := "/admin/shards"
		if suffix != "" {
			target += "/" + suffix
		}
		req := httptest.NewRequest(method, "http://gw/", bytes.NewReader(body))
		if u, err := url.ParseRequestURI(target); err == nil {
			req.URL = u
		} else {
			req.URL.Path = "/admin/shards/" + suffix
		}
		key := "adm"
		if !goodKey {
			key = "nope"
		}
		req.Header.Set(AdminKeyHeader, key)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnauthorized,
			http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict,
			http.StatusMovedPermanently, http.StatusPermanentRedirect:
		default:
			t.Fatalf("%s %q -> %d: %s", method, target, rec.Code, rec.Body.Bytes())
		}
		// Whatever happened, the gateway must still be coherent: the ring is
		// non-empty and the published membership self-verifies.
		mem := g.Membership()
		if len(mem.Shards) == 0 {
			t.Fatalf("%s %q emptied the ring", method, target)
		}
		if !VerifyMembership("adm", mem) {
			t.Fatalf("%s %q left an unverifiable membership", method, target)
		}
	})
}

// TestFleetCoherence: under concurrent joins and leaves, every /stats
// snapshot and every /readyz answer describes one whole fleet — the quorum,
// the alive count and the shard rows all match the published membership —
// and a probe sweep after the churn reaches exactly the members that
// remain. Every shard is always ready, so /readyz must never report a
// degraded fleet. CI runs it under -race with -count=20.
func TestFleetCoherence(t *testing.T) {
	pool := make([]*fakeShard, 6)
	for i := range pool {
		pool[i] = newFakeShard(t)
	}
	g := newTestGateway(t, Config{
		Shards:     []string{pool[0].name, pool[1].name},
		AdminKey:   "adm",
		ProbeEvery: time.Hour,
	})
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set(AdminKeyHeader, "adm")
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		return rec
	}

	var churn sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			for i := 0; i < 30; i++ {
				mem := g.Membership()
				f := pool[(c*7+i*5)%len(pool)]
				var rec *httptest.ResponseRecorder
				if slices.Contains(mem.Shards, f.name) {
					rec = serve(http.MethodDelete, fmt.Sprintf("/admin/shards/%s?epoch=%d", f.name, mem.Epoch), nil)
				} else {
					rec = serve(http.MethodPost, "/admin/shards", []byte(fmt.Sprintf(`{"addr":%q,"epoch":%d}`, f.name, mem.Epoch)))
				}
				// A raced epoch, a raced duplicate or the last-shard refusal
				// is a clean 409; anything else is a bug.
				if rec.Code != http.StatusOK && rec.Code != http.StatusConflict && rec.Code != http.StatusNotFound {
					t.Errorf("membership change -> %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		}(c)
	}
	go func() { churn.Wait(); close(done) }()

	for reads := 0; ; reads++ {
		st := g.StatsSnapshot()
		n := len(st.Membership.Shards)
		if st.Quorum != n/2+1 {
			t.Fatalf("quorum %d for %d members %v", st.Quorum, n, st.Membership.Shards)
		}
		if st.Alive > n {
			t.Fatalf("%d alive of %d members", st.Alive, n)
		}
		rows := make([]string, len(st.Shards))
		for i, r := range st.Shards {
			rows[i] = r.Name
		}
		slices.Sort(rows)
		if !slices.Equal(rows, st.Membership.Shards) {
			t.Fatalf("shard rows %v, membership %v", rows, st.Membership.Shards)
		}
		if !VerifyMembership("adm", st.Membership) {
			t.Fatalf("unverifiable membership %+v", st.Membership)
		}
		if rec := serve(http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
			t.Fatalf("/readyz -> %d with every member up: %s", rec.Code, rec.Body.Bytes())
		}
		select {
		case <-done:
		default:
			continue
		}
		if reads == 0 {
			t.Fatal("churn finished before any read")
		}
		break
	}

	if st := g.StatsSnapshot(); st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("churn changed nothing: %d joins, %d leaves", st.Joins, st.Leaves)
	}
	before := make([]int64, len(pool))
	for i, f := range pool {
		before[i] = f.probes.Load()
	}
	g.prober.probeAll()
	members := g.Membership().Shards
	for i, f := range pool {
		want := int64(0)
		if slices.Contains(members, f.name) {
			want = 1
		}
		if got := f.probes.Load() - before[i]; got != want {
			t.Errorf("shard %s (member: %v) took %d probes in one sweep, want %d", f.name, want == 1, got, want)
		}
	}
}

// TestMetricsDropDepartedShards: after a graceful leave no /metrics row
// names the departed shard, and a shard that rejoins under the same name
// exports its new counters from 0, whether or not a scrape saw it gone.
func TestMetricsDropDepartedShards(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	g := newTestGateway(t, Config{Shards: []string{a.name}, AdminKey: "adm", ProbeEvery: time.Hour})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	join := func() {
		t.Helper()
		body := []byte(fmt.Sprintf(`{"addr":%q,"epoch":%d}`, b.name, g.Membership().Epoch))
		if code, m := adminDo(t, gw, http.MethodPost, "/admin/shards", "adm", body); code != http.StatusOK {
			t.Fatalf("join: %d kind=%q", code, errKind(t, m))
		}
	}
	leave := func() {
		t.Helper()
		path := fmt.Sprintf("/admin/shards/%s?epoch=%d", b.name, g.Membership().Epoch)
		if code, m := adminDo(t, gw, http.MethodDelete, path, "adm", nil); code != http.StatusOK {
			t.Fatalf("leave: %d kind=%q", code, errKind(t, m))
		}
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(gw.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return string(out)
	}
	forwardedRow := func(n int) string {
		return fmt.Sprintf("schedgw_shard_forwarded_total{shard=%q} %d\n", b.name, n)
	}

	join()
	// A body whose ring primary is b, so traffic lands there.
	var ddg string
	for _, k := range bench.All() {
		if d := irtext.String(k.Build(4)); primaryFor(t, g, d) == b.name {
			ddg = d
			break
		}
	}
	if ddg == "" {
		t.Fatal("no kernel routes to the joined shard")
	}
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := http.Post(gw.URL+"/schedule?machine=vliw4", "text/plain", strings.NewReader(ddg))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	send(3)
	if out := scrape(); !strings.Contains(out, forwardedRow(3)) {
		t.Fatalf("before the leave, want %q in:\n%s", forwardedRow(3), out)
	}
	leave()
	if out := scrape(); strings.Contains(out, b.name) {
		t.Fatalf("a row still names departed shard %s:\n%s", b.name, out)
	}
	join()
	send(1)
	if out := scrape(); !strings.Contains(out, forwardedRow(1)) {
		t.Fatalf("after a rejoin, want %q in:\n%s", forwardedRow(1), out)
	}
	// Leave and rejoin with no scrape in between.
	leave()
	join()
	send(2)
	if out := scrape(); !strings.Contains(out, forwardedRow(2)) {
		t.Fatalf("after an unscraped leave and rejoin, want %q in:\n%s", forwardedRow(2), out)
	}

	// Scrapes racing with churn; once it settles, the rows name exactly
	// the members.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				g.metrics.reg.WriteTo(&b)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		leave()
		join()
	}
	leave()
	close(stop)
	wg.Wait()
	out := scrape()
	if strings.Contains(out, b.name) || !strings.Contains(out, fmt.Sprintf("schedgw_shard_alive{shard=%q} 1\n", a.name)) {
		t.Fatalf("after churn, want rows for %s alone:\n%s", a.name, out)
	}
}
