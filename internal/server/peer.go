package server

// Peer cache handoff: the shard side of the cluster's self-healing
// membership. Two surfaces live here, both enabled only when Config.PeerKey
// is set (a shared cluster secret, distinct from tenant API keys):
//
//   - The /cache endpoints other shards (and the gateway's rebalancer) call:
//     GET /cache/{hex key} exports one record, GET /cache/hot?k=K exports the
//     hottest K, and PUT /cache/{hex key} imports a record pushed by a
//     departing shard. Every import passes the engine's verifyRecord gate —
//     machine fingerprint, graph re-parse, rehydration + validation — before
//     it becomes servable; a peer is trusted exactly as much as a WAL file.
//
//   - Peer lookup before compute: when the gateway knows a request's
//     keyspace segment changed owners, it stamps the previous owner's base
//     URL on the forwarded request (X-Schedd-Peer) plus an HMAC signature
//     over it (X-Schedd-Peer-Sig, keyed by the same PeerKey). On a cache
//     miss this shard fetches the record from that peer and imports it
//     through the gate, so the request is served warm instead of recomputed.
//     The signature is what stops a client from steering the shard into
//     fetching from an attacker-chosen URL: only a holder of the cluster
//     secret — the gateway — can mint a valid hint.

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

const (
	// PeerHeader carries the previous ring owner's base URL on a /schedule
	// request forwarded by the gateway after a membership change.
	PeerHeader = "X-Schedd-Peer"
	// PeerSigHeader authenticates PeerHeader: hex HMAC-SHA256 of the peer
	// base URL under the shared cluster peer key. A hint without a valid
	// signature is ignored (and counted), never followed.
	PeerSigHeader = "X-Schedd-Peer-Sig"
	// PeerKeyHeader presents the shared cluster peer key on shard-to-shard
	// /cache calls.
	PeerKeyHeader = "X-Schedd-Peer-Key"
)

// maxHotExport caps one /cache/hot response regardless of the requested k.
const maxHotExport = 512

// peerTimeout bounds one peer cache fetch; a slow or dead peer must never
// stall the compute fallback for long.
const peerTimeout = 750 * time.Millisecond

// SignPeerHint computes the peer-hint signature the gateway stamps and the
// shard verifies: hex HMAC-SHA256 of the peer base URL under the cluster
// peer key.
func SignPeerHint(peerKey, peerBase string) string {
	mac := hmac.New(sha256.New, []byte(peerKey))
	mac.Write([]byte(peerBase))
	return hex.EncodeToString(mac.Sum(nil))
}

// peerCounters attribute every peer-path event; mirrored into /stats and the
// schedd_peer_events_total metric family.
type peerCounters struct {
	lookups        atomic.Uint64 // outbound fetches attempted on a local miss
	hits           atomic.Uint64 // fetches that imported a record through the gate
	misses         atomic.Uint64 // peer answered "not found" (or any non-200)
	errors         atomic.Uint64 // transport failures reaching the peer
	rejected       atomic.Uint64 // fetched records the legality gate refused
	badHints       atomic.Uint64 // peer hints with a missing or invalid signature
	served         atomic.Uint64 // records exported to peers via GET /cache
	imports        atomic.Uint64 // records accepted via PUT /cache
	importRejected atomic.Uint64 // pushed records the legality gate refused
	authFailures   atomic.Uint64 // /cache calls without the cluster peer key
}

// PeerStats is the peer-handoff slice of /stats.
type PeerStats struct {
	Enabled bool `json:"enabled"`
	// Client side: this shard fetching from previous owners.
	Lookups  uint64 `json:"lookups"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Errors   uint64 `json:"errors"`
	Rejected uint64 `json:"rejected"`
	BadHints uint64 `json:"badHints"`
	// Server side: this shard answering /cache calls from peers.
	Served         uint64 `json:"served"`
	Imports        uint64 `json:"imports"`
	ImportRejected uint64 `json:"importRejected"`
	AuthFailures   uint64 `json:"authFailures"`
}

func (p *peerCounters) snapshot(enabled bool) PeerStats {
	return PeerStats{
		Enabled:        enabled,
		Lookups:        p.lookups.Load(),
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Errors:         p.errors.Load(),
		Rejected:       p.rejected.Load(),
		BadHints:       p.badHints.Load(),
		Served:         p.served.Load(),
		Imports:        p.imports.Load(),
		ImportRejected: p.importRejected.Load(),
		AuthFailures:   p.authFailures.Load(),
	}
}

// verifyPeerKey checks the shared cluster secret on a /cache call in
// constant time. With no key configured the whole peer surface is disabled.
func (s *Server) verifyPeerKey(r *http.Request) error {
	if s.cfg.PeerKey == "" {
		return fmt.Errorf("peer cache API disabled: no peer key configured")
	}
	presented := r.Header.Get(PeerKeyHeader)
	if subtle.ConstantTimeCompare([]byte(s.cfg.PeerKey), []byte(presented)) != 1 {
		return fmt.Errorf("peer key mismatch")
	}
	return nil
}

// handleCache serves the shard-to-shard cache handoff API:
//
//	GET /cache/hot?k=K      the hottest K exportable records, MRU first
//	GET /cache/{hex key}    one record by its 32-byte cache key
//	PUT /cache/{hex key}    import a record (gated) pushed by a peer
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if err := s.verifyPeerKey(r); err != nil {
		s.peer.authFailures.Add(1)
		writeError(w, http.StatusUnauthorized, errorJSON{Kind: "unauthorized", Message: err.Error()})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/cache/")
	if rest == "hot" {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errorJSON{Kind: "bad-request", Message: "GET /cache/hot"})
			return
		}
		k := 32
		if v := r.URL.Query().Get("k"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: fmt.Sprintf("bad k %q", v)})
				return
			}
			k = n
		}
		if k > maxHotExport {
			k = maxHotExport
		}
		recs := s.engine.ExportHottest(k)
		s.peer.served.Add(uint64(len(recs)))
		writeJSON(w, http.StatusOK, recs)
		return
	}

	key, err := hex.DecodeString(rest)
	if err != nil || len(key) != sha256.Size {
		writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request",
			Message: fmt.Sprintf("cache key must be %d hex-encoded bytes", sha256.Size)})
		return
	}
	switch r.Method {
	case http.MethodGet:
		rec, ok := s.engine.ExportRecord(string(key))
		if !ok {
			writeError(w, http.StatusNotFound, errorJSON{Kind: "not-found", Message: "no exportable entry for key"})
			return
		}
		s.peer.served.Add(1)
		writeJSON(w, http.StatusOK, rec)
	case http.MethodPut:
		var rec store.Record
		body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		if err := json.NewDecoder(body).Decode(&rec); err != nil {
			writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: fmt.Sprintf("decoding record: %v", err)})
			return
		}
		// The record must answer for the key it was addressed to — a peer
		// cannot park content under someone else's address.
		if string(rec.Key) != string(key) {
			s.peer.importRejected.Add(1)
			writeError(w, http.StatusBadRequest, errorJSON{Kind: "bad-request", Message: "record key does not match URL key"})
			return
		}
		if err := s.engine.ImportRecord(&rec); err != nil {
			s.peer.importRejected.Add(1)
			writeError(w, http.StatusUnprocessableEntity, errorJSON{Kind: "rejected",
				Message: fmt.Sprintf("legality gate refused record: %v", err)})
			return
		}
		s.peer.imports.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, errorJSON{Kind: "bad-request", Message: "GET or PUT /cache/{key}"})
	}
}

// peerHint extracts and authenticates the gateway's previous-owner hint from
// a forwarded request. An unsigned or mis-signed hint is reported (counted
// by the caller) and never followed — the signature is the only thing
// standing between a hostile client header and a server-side fetch to an
// attacker-chosen URL.
func (s *Server) peerHint(r *http.Request) (string, bool) {
	peer := r.Header.Get(PeerHeader)
	if peer == "" || s.cfg.PeerKey == "" {
		return "", true
	}
	want := SignPeerHint(s.cfg.PeerKey, peer)
	got := r.Header.Get(PeerSigHeader)
	if subtle.ConstantTimeCompare([]byte(want), []byte(got)) != 1 {
		return "", false
	}
	return peer, true
}

// peerFetch is "peer cache lookup before compute": on a local miss for a
// cacheable job, ask the previous ring owner for the record under this
// request's own cache key (content-derived, so identical on every shard),
// run it through the import gate, and let the engine serve the warm hit.
// Failure of any kind falls back to computing locally — the peer path is an
// optimization, never a dependency.
func (s *Server) peerFetch(ctx context.Context, peerBase string, job engine.Job) bool {
	key, cacheable := s.engine.CacheKey(job)
	if !cacheable || s.engine.HasCached(key) {
		return false
	}
	s.peer.lookups.Add(1)
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	url := strings.TrimSuffix(peerBase, "/") + "/cache/" + hex.EncodeToString([]byte(key))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		s.peer.errors.Add(1)
		return false
	}
	req.Header.Set(PeerKeyHeader, s.cfg.PeerKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.peer.errors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		s.peer.misses.Add(1)
		return false
	}
	var rec store.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&rec); err != nil {
		// A body cut off because the fetch was abandoned (the request that
		// wanted it ended, or peerTimeout fired) is a transport failure,
		// not a record the gate refused.
		if ctx.Err() != nil {
			s.peer.errors.Add(1)
		} else {
			s.peer.rejected.Add(1)
		}
		return false
	}
	// Key pinning: the peer must answer the key we asked for. (Even a forged
	// key could not smuggle an illegal schedule — rehydration re-validates
	// against the requesting graph on every hit — but it could poison the
	// slot with a mismatched entry that costs a collision recompute.)
	if string(rec.Key) != key {
		s.peer.rejected.Add(1)
		return false
	}
	if err := s.engine.ImportRecord(&rec); err != nil {
		s.peer.rejected.Add(1)
		s.cfg.Logf("schedd: peer %s record refused by legality gate: %v", peerBase, err)
		return false
	}
	s.peer.hits.Add(1)
	return true
}
