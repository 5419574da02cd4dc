package server

// Peer-surface tests: the /cache handoff API's auth and legality gate, and
// peer lookup before compute driven by signed (and forged) gateway hints.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

// warmPeer boots a peer-enabled server and warms it with one unit, returning
// the server, its test listener, and the warm record's hex cache key.
func warmPeer(t *testing.T, peerKey string) (*Server, *httptest.Server, string, string) {
	t.Helper()
	s := New(Config{PeerKey: peerKey})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ddg := ddgFor(t, "fir", 4)
	code, body := post(t, ts, "machine=vliw4&seed=2002", ddg)
	if code != http.StatusOK {
		t.Fatalf("warming request: %d: %s", code, body)
	}
	hot := fetchHot(t, ts, peerKey, 4)
	if len(hot) != 1 {
		t.Fatalf("hot export after one request: %d records", len(hot))
	}
	return s, ts, hex.EncodeToString(hot[0].Key), ddg
}

func fetchHot(t *testing.T, ts *httptest.Server, peerKey string, k int) []*store.Record {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/cache/hot?k=%d", ts.URL, k), nil)
	req.Header.Set(PeerKeyHeader, peerKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/cache/hot: %d: %s", resp.StatusCode, b)
	}
	var recs []*store.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCacheAPIAuth: every /cache surface requires the cluster peer key, and
// a server without one has no peer surface at all.
func TestCacheAPIAuth(t *testing.T) {
	s, ts, key, _ := warmPeer(t, "cluster-k")
	for _, tc := range []struct{ method, path, presented string }{
		{http.MethodGet, "/cache/hot", ""},
		{http.MethodGet, "/cache/" + key, "wrong"},
		{http.MethodPut, "/cache/" + key, ""},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if tc.presented != "" {
			req.Header.Set(PeerKeyHeader, tc.presented)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s with key %q: %d, want 401", tc.method, tc.path, tc.presented, resp.StatusCode)
		}
	}
	if got := s.StatsSnapshot().Peer.AuthFailures; got != 3 {
		t.Errorf("authFailures = %d, want 3", got)
	}

	// No peer key configured: the surface is disabled even with any header.
	off := New(Config{})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	req, _ := http.NewRequest(http.MethodGet, tsOff.URL+"/cache/hot", nil)
	req.Header.Set(PeerKeyHeader, "anything")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("disabled peer surface answered %d, want 401", resp.StatusCode)
	}
}

// TestCachePushPull: a record exported from one shard imports into another
// through PUT /cache, becomes a warm hit there, and the gate holds — a
// tampered push and a key-mismatched push are refused.
func TestCachePushPull(t *testing.T) {
	_, tsA, key, ddg := warmPeer(t, "cluster-k")

	// Pull the record by key.
	req, _ := http.NewRequest(http.MethodGet, tsA.URL+"/cache/"+key, nil)
	req.Header.Set(PeerKeyHeader, "cluster-k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rec store.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hex.EncodeToString(rec.Key) != key {
		t.Fatalf("GET /cache/%s returned key %x", key, rec.Key)
	}

	// An unknown key is a 404, not an error.
	unknown := strings.Repeat("ab", 32)
	req, _ = http.NewRequest(http.MethodGet, tsA.URL+"/cache/"+unknown, nil)
	req.Header.Set(PeerKeyHeader, "cluster-k")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", resp.StatusCode)
	}

	// Push into a cold shard; the unit then serves as a cache hit.
	b := New(Config{PeerKey: "cluster-k"})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	put := func(ts *httptest.Server, urlKey string, r *store.Record) int {
		body, _ := json.Marshal(r)
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+urlKey, bytes.NewReader(body))
		req.Header.Set(PeerKeyHeader, "cluster-k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(tsB, key, &rec); code != http.StatusNoContent {
		t.Fatalf("push: %d, want 204", code)
	}
	code, body := post(t, tsB, "machine=vliw4&seed=2002", ddg)
	if code != http.StatusOK {
		t.Fatalf("post-push request: %d: %s", code, body)
	}
	sched, jr := decodeSchedule(t, body, ddg, "vliw4")
	_ = sched
	if !jr.CacheHit {
		t.Error("pushed record did not serve as a cache hit")
	}
	if got := b.StatsSnapshot().Peer.Imports; got != 1 {
		t.Errorf("imports = %d, want 1", got)
	}

	// Gate: a record parked under someone else's address is refused.
	if code := put(tsB, unknown, &rec); code != http.StatusBadRequest {
		t.Errorf("key-mismatched push: %d, want 400", code)
	}
	// Gate: a tampered schedule is refused with 422.
	bad := rec
	bad.Placements = append(rec.Placements[:0:0], rec.Placements...)
	bad.Placements[0].Start += 10000
	if code := put(tsB, key, &bad); code != http.StatusUnprocessableEntity {
		t.Errorf("tampered push: %d, want 422", code)
	}
	if got := b.StatsSnapshot().Peer.ImportRejected; got != 2 {
		t.Errorf("importRejected = %d, want 2", got)
	}
}

// TestPeerLookupBeforeCompute: a signed hint makes a cold shard fetch the
// record from its previous owner and serve it warm; a forged hint is counted
// and ignored, and the request still computes locally.
func TestPeerLookupBeforeCompute(t *testing.T) {
	_, tsA, _, ddg := warmPeer(t, "cluster-k")

	b := New(Config{PeerKey: "cluster-k"})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	send := func(peer, sig string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodPost, tsB.URL+"/schedule?machine=vliw4&seed=2002", strings.NewReader(ddg))
		req.Header.Set("Content-Type", "text/plain")
		if peer != "" {
			req.Header.Set(PeerHeader, peer)
			req.Header.Set(PeerSigHeader, sig)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Forged hint first (while still cold): ignored, counted, computed.
	code, body := send(tsA.URL, "deadbeef")
	if code != http.StatusOK {
		t.Fatalf("forged-hint request: %d: %s", code, body)
	}
	var jr scheduleResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.PeerHit {
		t.Fatal("forged hint produced a peer hit")
	}
	st := b.StatsSnapshot().Peer
	if st.BadHints != 1 || st.Lookups != 0 {
		t.Fatalf("after forged hint: badHints=%d lookups=%d, want 1 and 0", st.BadHints, st.Lookups)
	}

	// Fresh cold shard, authentic hint: fetched, gated, served warm.
	c := New(Config{PeerKey: "cluster-k"})
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	req, _ := http.NewRequest(http.MethodPost, tsC.URL+"/schedule?machine=vliw4&seed=2002", strings.NewReader(ddg))
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(PeerHeader, tsA.URL)
	req.Header.Set(PeerSigHeader, SignPeerHint("cluster-k", tsA.URL))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hinted request: %d: %s", resp.StatusCode, body)
	}
	_, jr2 := decodeSchedule(t, body, ddg, "vliw4")
	if !jr2.PeerHit || !jr2.CacheHit {
		t.Fatalf("hinted request peerHit=%v cacheHit=%v, want true/true", jr2.PeerHit, jr2.CacheHit)
	}
	stC := c.StatsSnapshot().Peer
	if stC.Lookups != 1 || stC.Hits != 1 {
		t.Errorf("peer lookup counters = %+v, want 1 lookup / 1 hit", stC)
	}

	// Second identical request: local hit now, no second fetch.
	req2, _ := http.NewRequest(http.MethodPost, tsC.URL+"/schedule?machine=vliw4&seed=2002", strings.NewReader(ddg))
	req2.Header.Set(PeerHeader, tsA.URL)
	req2.Header.Set(PeerSigHeader, SignPeerHint("cluster-k", tsA.URL))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := c.StatsSnapshot().Peer.Lookups; got != 1 {
		t.Errorf("warm shard fetched again: lookups = %d", got)
	}
}

// TestPeerFetchCutOffIsNotARejection: a peer that answers 200 and then stalls
// mid-body until peerTimeout abandons the fetch is a transport failure, not
// a record the legality gate refused. The request still computes locally.
func TestPeerFetchCutOffIsNotARejection(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"key":"`)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer stalled.Close()
	s := New(Config{PeerKey: "cluster-k"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/schedule?machine=vliw4&seed=2002", strings.NewReader(ddgFor(t, "fir", 4)))
	req.Header.Set(PeerHeader, stalled.URL)
	req.Header.Set(PeerSigHeader, SignPeerHint("cluster-k", stalled.URL))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with a stalled peer: %d: %s", resp.StatusCode, body)
	}
	if st := s.StatsSnapshot().Peer; st.Lookups != 1 || st.Errors != 1 || st.Rejected != 0 {
		t.Errorf("peer counters = %+v, want 1 lookup, 1 error, 0 rejected", st)
	}
}
