package cluster

// Live cluster membership: the admin API that grows and shrinks the shard
// fleet online, the epoch counter that makes every change observable and
// replay-proof, and the rebalancer that moves the content-addressed cache
// with the keyspace.
//
// The model:
//
//   - The epoch, the ring, the members and the quorum they imply are one
//     immutable fleet value, published through an atomic pointer. Every
//     reader (routing, peer hints, /stats, /readyz, /metrics, the prober)
//     loads one fleet and reads nothing else, so none can observe a
//     half-applied membership change. Joins and leaves build the next fleet
//     under one admin mutex; readers never take it.
//   - Every mutation requires the caller to present the epoch it is mutating
//     (the precondition it read from /stats). A stale epoch is a 409: two
//     operators racing a change, or a replayed request, cannot both win.
//   - The membership published in /stats is signed (HMAC-SHA256 under the
//     admin key) so a consumer polling many gateways can tell an authentic
//     fleet view from a spoofed or stale one.
//   - Removing one of N shards remaps only that shard's own vnodes' keyspace
//     (the consistent-hashing contract, pinned by TestBoundedMovement);
//     adding one steals keys only for the newcomer. Either way, each fleet
//     keeps the one before it: requests whose segment changed owners are
//     forwarded with a signed previous-owner hint, so the new owner can fetch
//     the record instead of recomputing it (peer cache lookup before compute).
//   - A graceful leave additionally pushes the departing shard's hottest K
//     cache entries to their new owners through the shards' /cache API, so
//     the working set moves before the traffic does.
//
// An ungraceful leave (kill -9) needs none of this: the dead shard stays in
// the ring, the prober marks it dead within an interval, the breaker stops
// paying for it, and requests fail over around the ring until it
// warm-restarts into the same keyspace.

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
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/irtext"
	"repro/internal/server"
	"repro/internal/store"
)

// AdminKeyHeader presents the admin secret on membership API calls.
const AdminKeyHeader = "X-Schedgw-Admin-Key"

// rebalanceTimeout bounds one graceful leave's whole hot-entry push; a stuck
// peer must not wedge the admin API.
const rebalanceTimeout = 15 * time.Second

// maxRebalanceBody caps one /cache/hot response read during rebalance.
// Records embed whole graphs, so this is generous but still finite.
const maxRebalanceBody = 32 << 20

// Membership is the fleet view published in /stats and returned by every
// admin mutation: the epoch (bumped by each join/leave), the sorted member
// names, the effective quorum, and — when an admin key is configured — an
// HMAC signature binding epoch and members together.
type Membership struct {
	Epoch  uint64   `json:"epoch"`
	Shards []string `json:"shards"`
	Quorum int      `json:"quorum"`
	// Signature is hex HMAC-SHA256 over "epoch=E;shards=a,b,c" under the
	// admin key; empty when no admin key is configured.
	Signature string `json:"signature,omitempty"`
}

// signMembership computes the membership signature; VerifyMembership is its
// client-side counterpart.
func signMembership(key string, epoch uint64, shards []string) string {
	mac := hmac.New(sha256.New, []byte(key))
	fmt.Fprintf(mac, "epoch=%d;shards=%s", epoch, strings.Join(shards, ","))
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifyMembership reports whether m's signature is authentic under key —
// what a monitoring consumer runs against each gateway's /stats.
func VerifyMembership(key string, m Membership) bool {
	want := signMembership(key, m.Epoch, m.Shards)
	return subtle.ConstantTimeCompare([]byte(want), []byte(m.Signature)) == 1
}

// parseShardAddr normalizes a shard address (host:port or full URL) into the
// ring name and forwarding base URL — one rule for boot-time -shard flags and
// runtime joins alike.
func parseShardAddr(raw string) (name, base string, err error) {
	base = raw
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return "", "", fmt.Errorf("bad shard address %q", raw)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", "", fmt.Errorf("bad shard address %q: scheme %q", raw, u.Scheme)
	}
	return u.Host, strings.TrimSuffix(base, "/"), nil
}

// fleet is one membership generation. It is never modified once published:
// a join or leave builds the next fleet and swaps the gateway's pointer.
type fleet struct {
	epoch   uint64
	ring    *Ring
	members []*shard // join order, for degraded round-robin
	byName  map[string]*shard
	// prev is the fleet this one replaced, with its own prev cleared: the
	// source of previous-owner peer hints, and of the base URL of a shard
	// that has just left.
	prev *fleet
}

// newFleet builds the fleet of members (in join order) at epoch, replacing
// prev (nil for the boot fleet).
func newFleet(epoch uint64, members []*shard, prev *fleet) *fleet {
	f := &fleet{epoch: epoch, members: members, byName: make(map[string]*shard, len(members))}
	names := make([]string, len(members))
	for i, s := range members {
		names[i] = s.name
		f.byName[s.name] = s
	}
	f.ring = NewRing(names...)
	if prev != nil {
		p := *prev
		p.prev = nil
		f.prev = &p
	}
	return f
}

// quorum is the ring-routing quorum: a majority of the members. Below it the
// gateway degrades to any-alive-shard routing.
func (f *fleet) quorum() int { return len(f.members)/2 + 1 }

// alive counts the members whose last probe succeeded.
func (f *fleet) alive() int {
	n := 0
	for _, s := range f.members {
		if s.alive.Load() {
			n++
		}
	}
	return n
}

// membership is the fleet's published view, signed under key when one is
// configured.
func (f *fleet) membership(key string) Membership {
	m := Membership{Epoch: f.epoch, Shards: f.ring.Shards(), Quorum: f.quorum()}
	if key != "" {
		m.Signature = signMembership(key, m.Epoch, m.Shards)
	}
	return m
}

// Membership returns the signed fleet view (the /stats membership section).
func (g *Gateway) Membership() Membership { return g.fleet.Load().membership(g.cfg.AdminKey) }

// epochConflict is the 409 for a mutation preconditioned on a stale epoch.
func epochConflict(cur, got uint64) *gwError {
	return &gwError{code: http.StatusConflict, kind: "epoch-conflict",
		message: fmt.Sprintf("membership epoch is %d, request preconditioned on %d (stale view or replay)", cur, got)}
}

// verifyAdmin authenticates one membership API call. No admin key configured
// means the API is disabled outright — static membership is the safe
// default, not an open mutation surface.
func (g *Gateway) verifyAdmin(r *http.Request) *gwError {
	if g.cfg.AdminKey == "" {
		return &gwError{code: http.StatusForbidden, kind: "disabled",
			message: "membership admin API disabled: gateway started without -admin-key"}
	}
	presented := r.Header.Get(AdminKeyHeader)
	if subtle.ConstantTimeCompare([]byte(g.cfg.AdminKey), []byte(presented)) != 1 {
		return &gwError{code: http.StatusUnauthorized, kind: "unauthorized",
			message: "missing or wrong " + AdminKeyHeader}
	}
	return nil
}

// adminResponse is the body of a successful membership mutation.
type adminResponse struct {
	Membership Membership `json:"membership"`
	// Pushed and PushErrors report the graceful-leave rebalance: cache
	// records handed to their new owners, and pushes that failed or were
	// refused by the receiving shard's legality gate.
	Pushed     int `json:"pushed,omitempty"`
	PushErrors int `json:"pushErrors,omitempty"`
}

// handleAdminShards serves the live-membership admin API:
//
//	GET    /admin/shards            the signed membership (epoch, members)
//	POST   /admin/shards            join:  {"addr": "host:port", "epoch": E}
//	DELETE /admin/shards/{id}?epoch=E   graceful leave with hot-entry push
//
// Every mutation carries the epoch the caller read beforehand; a mismatch is
// a 409, which is what makes a replayed or raced request harmless.
func (g *Gateway) handleAdminShards(w http.ResponseWriter, r *http.Request) {
	if e := g.verifyAdmin(r); e != nil {
		g.writeError(w, e)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/admin/shards")
	rest = strings.TrimPrefix(rest, "/")
	switch {
	case r.Method == http.MethodGet && rest == "":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(adminResponse{Membership: g.Membership()})
	case r.Method == http.MethodPost && rest == "":
		g.handleJoin(w, r)
	case r.Method == http.MethodDelete && rest != "":
		g.handleLeave(w, r, rest)
	case r.Method == http.MethodDelete:
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: "DELETE /admin/shards/{id}?epoch=E"})
	default:
		g.writeError(w, &gwError{code: http.StatusMethodNotAllowed, kind: "bad-request",
			message: "GET or POST /admin/shards, DELETE /admin/shards/{id}"})
	}
}

// handleJoin admits a new shard into the ring.
func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: fmt.Sprintf("reading body: %v", err)})
		return
	}
	var req struct {
		Addr  string  `json:"addr"`
		Epoch *uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: fmt.Sprintf("join body must be JSON {addr, epoch}: %v", err)})
		return
	}
	if req.Addr == "" {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: "join body is missing the shard addr"})
		return
	}
	if req.Epoch == nil {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: "join body is missing the epoch precondition; read it from /stats membership"})
		return
	}
	name, base, err := parseShardAddr(req.Addr)
	if err != nil {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request", message: err.Error()})
		return
	}

	next, s, gerr := g.join(name, base, *req.Epoch)
	if gerr != nil {
		g.writeError(w, gerr)
		return
	}
	g.joins.Add(1)
	mem := next.membership(g.cfg.AdminKey)
	g.cfg.Logf("schedgw: shard %s joined (epoch %d, quorum %d, alive %v)", name, mem.Epoch, mem.Quorum, s.alive.Load())
	writeAdminJSON(w, adminResponse{Membership: mem})
}

// join publishes the fleet with the named shard appended, if epoch is
// current and the name is new.
func (g *Gateway) join(name, base string, epoch uint64) (*fleet, *shard, *gwError) {
	g.adminMu.Lock()
	defer g.adminMu.Unlock()
	cur := g.fleet.Load()
	if epoch != cur.epoch {
		return nil, nil, epochConflict(cur.epoch, epoch)
	}
	if _, dup := cur.byName[name]; dup {
		return nil, nil, &gwError{code: http.StatusConflict, kind: "duplicate",
			message: fmt.Sprintf("shard %q is already a member", name)}
	}
	// Probe before publishing: the join response means "the ring routes to
	// it now", so its liveness verdict must exist already rather than
	// defaulting to dead until the next sweep.
	s := &shard{name: name, base: base}
	g.prober.probeOne(s)
	next := newFleet(cur.epoch+1, append(slices.Clip(cur.members), s), cur)
	g.fleet.Store(next)
	return next, s, nil
}

// handleLeave removes a shard gracefully: ring exit first (so no new work
// routes to it), then its hottest cache entries are pushed to their new
// owners while the process is still up to answer /cache.
func (g *Gateway) handleLeave(w http.ResponseWriter, r *http.Request, id string) {
	epochStr := r.URL.Query().Get("epoch")
	if epochStr == "" {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: "leave requires ?epoch=E; read it from /stats membership"})
		return
	}
	epoch, err := strconv.ParseUint(epochStr, 10, 64)
	if err != nil {
		g.writeError(w, &gwError{code: http.StatusBadRequest, kind: "bad-request",
			message: fmt.Sprintf("bad epoch %q", epochStr)})
		return
	}

	next, s, gerr := g.leave(id, epoch)
	if gerr != nil {
		g.writeError(w, gerr)
		return
	}
	pushed, pushErrs := g.rebalance(s, next)
	g.leaves.Add(1)
	mem := next.membership(g.cfg.AdminKey)
	g.cfg.Logf("schedgw: shard %s left (epoch %d, quorum %d); pushed %d hot records to new owners (%d errors)",
		id, mem.Epoch, mem.Quorum, pushed, pushErrs)
	writeAdminJSON(w, adminResponse{Membership: mem, Pushed: pushed, PushErrors: pushErrs})
}

// leave publishes the fleet without the named member, if epoch is current
// and it is not the last one.
func (g *Gateway) leave(id string, epoch uint64) (*fleet, *shard, *gwError) {
	g.adminMu.Lock()
	defer g.adminMu.Unlock()
	cur := g.fleet.Load()
	s, ok := cur.byName[id]
	if !ok {
		return nil, nil, &gwError{code: http.StatusNotFound, kind: "not-found",
			message: fmt.Sprintf("shard %q is not a member", id)}
	}
	if len(cur.members) == 1 {
		return nil, nil, &gwError{code: http.StatusConflict, kind: "conflict",
			message: "refusing to remove the last shard; the ring may not be emptied"}
	}
	if epoch != cur.epoch {
		return nil, nil, epochConflict(cur.epoch, epoch)
	}
	kept := slices.DeleteFunc(slices.Clone(cur.members), func(m *shard) bool { return m == s })
	next := newFleet(cur.epoch+1, kept, cur)
	g.fleet.Store(next)
	return next, s, nil
}

func writeAdminJSON(w http.ResponseWriter, v adminResponse) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// rebalance is the graceful-leave data movement: fetch the departing shard's
// hottest K cache records and PUT each to its new owner in the post-leave
// fleet. Every push lands behind the receiving shard's legality gate, so a
// corrupted or stale record costs a rejection, never an illegal serve. The
// whole pass is bounded by rebalanceTimeout and purely best-effort: a failed
// push degrades to a future peer lookup or a recompute.
func (g *Gateway) rebalance(leaving *shard, next *fleet) (pushed, pushErrs int) {
	if g.cfg.PeerKey == "" || g.cfg.RebalanceK <= 0 {
		return 0, 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), rebalanceTimeout)
	defer cancel()

	hotURL := fmt.Sprintf("%s/cache/hot?k=%d", leaving.base, g.cfg.RebalanceK)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hotURL, nil)
	if err != nil {
		g.hotPushErrors.Add(1)
		return 0, 1
	}
	req.Header.Set(server.PeerKeyHeader, g.cfg.PeerKey)
	resp, err := g.client.Do(req)
	if err != nil {
		g.cfg.Logf("schedgw: rebalance: fetching hot set from %s: %v", leaving.name, err)
		g.hotPushErrors.Add(1)
		return 0, 1
	}
	var recs []*store.Record
	derr := json.NewDecoder(io.LimitReader(resp.Body, maxRebalanceBody)).Decode(&recs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil {
		g.cfg.Logf("schedgw: rebalance: hot set from %s: status %d, %v", leaving.name, resp.StatusCode, derr)
		g.hotPushErrors.Add(1)
		return 0, 1
	}

	for _, rec := range recs {
		if rec == nil {
			continue
		}
		// The ring routes on the graph's canonical fingerprint, not the cache
		// key, so the record's embedded graph names its new owner.
		gr, err := irtext.ParseString(string(rec.Graph))
		if err != nil {
			pushErrs++
			continue
		}
		owner := next.byName[next.ring.Owners(KeyFor(gr.CanonicalHash()), 1)[0]]
		if err := g.pushRecord(ctx, owner.base, rec); err != nil {
			g.cfg.Logf("schedgw: rebalance: pushing to %s: %v", owner.name, err)
			pushErrs++
			continue
		}
		pushed++
	}
	g.hotPushed.Add(uint64(pushed))
	g.hotPushErrors.Add(uint64(pushErrs))
	return pushed, pushErrs
}

// pushRecord PUTs one record to its new owner's /cache endpoint.
func (g *Gateway) pushRecord(ctx context.Context, base string, rec *store.Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	url := base + "/cache/" + hex.EncodeToString(rec.Key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set(server.PeerKeyHeader, g.cfg.PeerKey)
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// peerHint names the previous owner of a request's keyspace segment: the
// shard its record lives on if anyone has it, signed so the receiving shard
// can trust the gateway chose the URL.
type peerHint struct {
	owner string // previous owner's ring name
	base  string // its base URL
	sig   string // HMAC over base under the cluster peer key
}

// hintFor computes the previous-owner hint for a routing key, or nil when
// ownership did not change at the last membership transition (the common
// steady-state case) or the peer surface is disabled. The hint persists
// until the next membership change; it is harmless on warm shards because
// the peer fetch only fires on a local cache miss.
func (g *Gateway) hintFor(key uint64) *peerHint {
	if g.cfg.PeerKey == "" {
		return nil
	}
	f := g.fleet.Load()
	if f.prev == nil {
		return nil
	}
	prev := f.prev.ring.Owners(key, 1)[0]
	if prev == f.ring.Owners(key, 1)[0] {
		return nil
	}
	base := f.prev.byName[prev].base
	return &peerHint{owner: prev, base: base, sig: server.SignPeerHint(g.cfg.PeerKey, base)}
}
