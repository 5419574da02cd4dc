package cluster

// The cluster chaos suite: a real 3-shard schedd fleet behind the gateway,
// flooded by concurrent clients while one shard is killed mid-load and
// warm-restarted. The acceptance contract: every 200 carries a legal,
// client-revalidated schedule; every non-200 is a structured error; hedges
// and reroutes show up in /stats; doubleDeliveries stays 0; and after the
// victim restarts the ring rebalances onto it and it serves cache hits.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/server"
)

// clusterUnit is one request shape the flood clients rotate through.
type clusterUnit struct {
	kernel  string
	machine string
	n       int
	ddg     string
}

func clusterUnits(t *testing.T) []clusterUnit {
	t.Helper()
	units := []clusterUnit{
		{kernel: "vvmul", machine: "vliw4", n: 4},
		{kernel: "fir", machine: "raw4", n: 4},
		{kernel: "yuv", machine: "vliw4", n: 4},
		{kernel: "fir", machine: "vliw2", n: 2},
	}
	for i := range units {
		k, ok := bench.ByName(units[i].kernel)
		if !ok {
			t.Fatalf("kernel %s not registered", units[i].kernel)
		}
		units[i].ddg = irtext.String(k.Build(units[i].n))
	}
	return units
}

// clusterLegal rebuilds the schedule carried by a 200 body against the
// request's own DDG and machine and validates it — the client-side proof of
// legality, independent of anything the shard or gateway claims.
func clusterLegal(body []byte, ddg, machineName string) error {
	var resp struct {
		Shard      string `json:"shard"`
		CacheHit   bool   `json:"cacheHit"`
		Placements []struct{ Cluster, FU, Start, Latency int }
		CommList   []struct{ Value, From, To, Depart, Arrive int }
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("200 body is not a schedule response: %v", err)
	}
	g, err := irtext.ParseString(ddg)
	if err != nil {
		return fmt.Errorf("reparsing request ddg: %v", err)
	}
	m, err := machine.Named(machineName)
	if err != nil {
		return err
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

// structuredError asserts a non-200 body is a structured JSON error.
func structuredError(code int, body []byte) error {
	var eb struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind == "" {
		return fmt.Errorf("status %d body is not a structured error (%v): %s", code, err, body)
	}
	return nil
}

// liveShard is one schedd instance the chaos test can kill and restart.
type liveShard struct {
	name    string       // host:port, fixed for the test's lifetime
	dir     string       // persistent store, survives the crash
	peerKey string       // cluster peer secret; empty disables the peer surface
	ln      net.Listener // the reserved address, served by the first boot
	srv     *server.Server
	hs      *http.Server
}

// reserveShard binds a fresh loopback port for a shard. The listener stays
// open until the shard's first boot serves on it, so no other process can
// take the port between the reservation and the boot.
func reserveShard(t *testing.T, peerKey string) *liveShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &liveShard{name: ln.Addr().String(), dir: filepath.Join(t.TempDir(), "store"), peerKey: peerKey, ln: ln}
}

// boot starts the shard's daemon on its reserved listener.
func (s *liveShard) boot(t *testing.T, chaos *faultinject.Chaos) {
	t.Helper()
	if err := s.serve(s.ln, chaos); err != nil {
		t.Fatal(err)
	}
}

// restart brings a killed shard back on the address the ring knows it by.
// It is the one place the test binds an address again, and it runs on a
// spawned goroutine, so it returns its error for t.Errorf instead of
// failing the test itself.
func (s *liveShard) restart() error {
	ln, err := net.Listen("tcp", s.name)
	if err != nil {
		return fmt.Errorf("shard %s: listen again after kill: %w", s.name, err)
	}
	return s.serve(ln, nil)
}

// serve opens the shard's store and serves its daemon on ln.
func (s *liveShard) serve(ln net.Listener, chaos *faultinject.Chaos) error {
	s.srv = server.New(server.Config{
		Seed:         2002,
		ShardID:      s.name,
		StoreDir:     s.dir,
		StoreNoFsync: true,
		PeerKey:      s.peerKey,
		Chaos:        chaos,
	})
	if err := s.srv.OpenStore(); err != nil {
		ln.Close()
		return fmt.Errorf("shard %s: open store: %w", s.name, err)
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln)
	return nil
}

// kill is the SIGKILL stand-in: the listener and every live connection die
// abruptly, and the store is abandoned without flush or sync.
func (s *liveShard) kill() {
	s.hs.Close()
	s.srv.Crash()
}

// TestClusterChaos is the headline cluster acceptance test. Three real
// shards, one of them pass-stalled (slow enough that fresh work hedges),
// four flooding clients with unique seeds (every request is fresh
// scheduling work), the victim shard killed mid-flood and warm-restarted on
// the same port.
func TestClusterChaos(t *testing.T) {
	const (
		clients   = 4
		perClient = 25
	)
	units := clusterUnits(t)

	// Reserve three addresses first: shard names are host:port, so the ring
	// layout — and with it the victim and the stalled shard — is known
	// before any daemon boots.
	shards := make([]*liveShard, 3)
	names := make([]string, 3)
	for i := range shards {
		shards[i] = reserveShard(t, "")
		names[i] = shards[i].name
	}
	probe := NewRing(names...)
	unit0, err := irtext.ParseString(units[0].ddg)
	if err != nil {
		t.Fatal(err)
	}
	victimName := probe.Owners(KeyFor(unit0.CanonicalHash()), 1)[0]
	var victim, stalled *liveShard
	for _, s := range shards {
		if s.name == victimName {
			victim = s
		} else if stalled == nil {
			stalled = s
		}
	}

	// The stalled shard's convergent rungs sleep 40ms per pass: any fresh
	// request it primaries takes well past the hedge budget, so the flood is
	// guaranteed to exercise hedging against a healthy, merely slow shard.
	for _, s := range shards {
		var chaos *faultinject.Chaos
		if s == stalled {
			chaos = &faultinject.Chaos{Class: faultinject.ChaosPassStall, Stall: 40 * time.Millisecond, Seed: 1}
		}
		s.boot(t, chaos)
	}
	t.Cleanup(func() {
		for _, s := range shards {
			s.hs.Close()
		}
	})

	g, err := NewGateway(Config{
		Shards:       names,
		HedgeAfter:   15 * time.Millisecond,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		MaxRetries:   2,
		RetryBase:    10 * time.Millisecond,
		Breakers:     robust.BreakerPolicy{Failures: 2, Cooldown: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	client := &http.Client{Timeout: 15 * time.Second}

	var (
		posted, served atomic.Uint64
		seedCounter    atomic.Uint64
		violations     = make(chan error, clients*perClient)
		killOnce       sync.Once
		killDone       = make(chan struct{})
	)
	post := func(u clusterUnit, seed uint64) {
		url := fmt.Sprintf("%s/schedule?machine=%s&seed=%d", gw.URL, u.machine, seed)
		resp, err := client.Post(url, "text/plain", strings.NewReader(u.ddg))
		if err != nil {
			violations <- fmt.Errorf("transport error through gateway: %v", err)
			return
		}
		body := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			body = append(body, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		posted.Add(1)
		if resp.StatusCode == http.StatusOK {
			if err := clusterLegal(body, u.ddg, u.machine); err != nil {
				violations <- err
				return
			}
			served.Add(1)
			return
		}
		if err := structuredError(resp.StatusCode, body); err != nil {
			violations <- err
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				post(units[(c+i)%len(units)], seedCounter.Add(1))
				// A quarter of the way in, the victim dies mid-flood and
				// warm-restarts on the same port once it has been down for
				// 400ms and the gateway has routed around it. Only the unit
				// it owns routes to it first, so on a slow runner 400ms can
				// pass with no request meeting it dead; the wait for the
				// reroute is bounded, and a flood that never meets it still
				// fails the reroute check below.
				if posted.Load() >= clients*perClient/4 {
					killOnce.Do(func() {
						victim.kill()
						go func() {
							defer close(killDone)
							time.Sleep(400 * time.Millisecond)
							for end := time.Now().Add(3 * time.Second); g.StatsSnapshot().Reroutes == 0 && time.Now().Before(end); {
								time.Sleep(10 * time.Millisecond)
							}
							if err := victim.restart(); err != nil {
								t.Errorf("victim restart: %v", err)
							}
						}()
					})
				}
			}
		}(c)
	}
	wg.Wait()
	close(violations)
	for v := range violations {
		t.Error(v)
	}
	select {
	case <-killDone:
	case <-time.After(5 * time.Second):
		t.Fatal("victim was never killed: the flood finished before the kill threshold")
	}

	st := g.StatsSnapshot()
	if st.DoubleDeliveries != 0 {
		t.Errorf("doubleDeliveries=%d — a client saw two results for one request", st.DoubleDeliveries)
	}
	if st.Hedges == 0 {
		t.Error("no hedge fired against the stalled shard")
	}
	if st.Reroutes == 0 {
		t.Error("no reroute counted across a shard kill")
	}
	total, ok := posted.Load(), served.Load()
	if total != clients*perClient {
		t.Errorf("%d of %d requests completed", total, clients*perClient)
	}
	if frac := float64(ok) / float64(total); frac < 0.6 {
		t.Errorf("only %.0f%% of requests served (%d/%d); error rate unbounded", 100*frac, ok, total)
	}
	t.Logf("flood: %d/%d served, hedges=%d hedgeWins=%d reroutes=%d retries=%d quorumDegraded=%d",
		ok, total, st.Hedges, st.HedgeWins, st.Reroutes, st.Retries, st.QuorumDegraded)

	// Rebalance: the restarted victim must rejoin the ring (probe finds it
	// ready, the breaker closes through its half-open gate) and serve its
	// keyspace again — proven by a cache hit computed and served by the
	// victim for a fresh post-restart seed.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard %s never served a cache hit; stats: %+v", victim.name, g.StatsSnapshot())
		}
		resp, err := client.Post(gw.URL+"/schedule?machine=vliw4&seed=424242", "text/plain", strings.NewReader(units[0].ddg))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var body struct {
			Shard    string `json:"shard"`
			CacheHit bool   `json:"cacheHit"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if derr == nil && resp.StatusCode == http.StatusOK && body.Shard == victim.name && body.CacheHit {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if alive := g.StatsSnapshot().Alive; alive != len(shards) {
		t.Errorf("%d of %d shards alive after the restart settled", alive, len(shards))
	}
}

// TestMembershipChurnChaos is the self-healing membership acceptance test: a
// real 3-shard fleet with the peer surface enabled is flooded with a fixed
// warm working set while an operator joins a fourth shard, gracefully
// retires a seed shard (hot-entry push), SIGKILLs a survivor mid-flood, and
// warm-restarts it on the same port. The contract under all of that churn:
// every 200 carries a client-revalidated legal schedule, every non-200 is a
// structured error, doubleDeliveries stays 0, the epoch ends exactly two
// bumps up with a verifiable signature, and the moved keyspace is served
// through the peer handoff (hot pushes, peer hits, or imports — not silence).
func TestMembershipChurnChaos(t *testing.T) {
	const (
		clients = 4
		maxIter = 400 // per-client hard bound; the operator script ends the flood
	)
	units := clusterUnits(t)
	warmSeeds := []uint64{11, 12, 13}

	// Reserve the seed fleet's addresses first so ring layout is known before
	// any daemon boots.
	seeds := make([]*liveShard, 3)
	names := make([]string, 3)
	for i := range seeds {
		seeds[i] = reserveShard(t, "cluster-k")
		names[i] = seeds[i].name
	}
	unitKeys := make([]uint64, len(units))
	for i, u := range units {
		g, err := irtext.ParseString(u.ddg)
		if err != nil {
			t.Fatal(err)
		}
		unitKeys[i] = KeyFor(g.CanonicalHash())
	}

	// Pick a joiner that steals at least one unit key from the seed fleet, so
	// the join itself changes ownership of live traffic. With only a handful
	// of distinct routing keys this needs a small search over candidate ports.
	var joiner *liveShard
	for try := 0; try < 16 && joiner == nil; try++ {
		cand := reserveShard(t, "cluster-k")
		ring := NewRing(append(slices.Clone(names), cand.name)...)
		for _, k := range unitKeys {
			if ring.Owners(k, 1)[0] == cand.name {
				joiner = cand
				break
			}
		}
		if joiner == nil {
			cand.ln.Close()
		}
	}
	if joiner == nil {
		t.Fatal("no candidate joiner steals a unit key; probe search too small")
	}
	postJoin := NewRing(append(slices.Clone(names), joiner.name)...)

	// The graceful leaver: a seed shard owning at least one unit key on the
	// post-join ring, so the leave moves live keyspace and the hot push has
	// something to move. Fall back to any seed if the joiner owns everything.
	leaver := seeds[0]
	for _, k := range unitKeys {
		owner := postJoin.Owners(k, 1)[0]
		if owner == joiner.name {
			continue
		}
		for _, s := range seeds {
			if s.name == owner {
				leaver = s
			}
		}
		break
	}
	// The SIGKILL victim: any seed that is neither the leaver nor the joiner.
	var victim *liveShard
	for _, s := range seeds {
		if s != leaver {
			victim = s
			break
		}
	}

	for _, s := range seeds {
		s.boot(t, nil)
	}
	joiner.boot(t, nil)
	t.Cleanup(func() {
		for _, s := range append(append([]*liveShard(nil), seeds...), joiner) {
			s.hs.Close()
		}
	})

	g, err := NewGateway(Config{
		Shards:       names,
		AdminKey:     "adm",
		PeerKey:      "cluster-k",
		RebalanceK:   32,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		MaxRetries:   2,
		RetryBase:    10 * time.Millisecond,
		Breakers:     robust.BreakerPolicy{Failures: 2, Cooldown: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	client := &http.Client{Timeout: 15 * time.Second}

	var (
		vioMu      sync.Mutex
		violations []error
		posted     atomic.Uint64
		stop       atomic.Bool
	)
	report := func(err error) {
		vioMu.Lock()
		violations = append(violations, err)
		vioMu.Unlock()
	}
	post := func(u clusterUnit, seed uint64) {
		url := fmt.Sprintf("%s/schedule?machine=%s&seed=%d", gw.URL, u.machine, seed)
		resp, err := client.Post(url, "text/plain", strings.NewReader(u.ddg))
		if err != nil {
			report(fmt.Errorf("transport error through gateway: %v", err))
			return
		}
		body := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			body = append(body, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		posted.Add(1)
		if resp.StatusCode == http.StatusOK {
			if err := clusterLegal(body, u.ddg, u.machine); err != nil {
				report(err)
			}
			return
		}
		if err := structuredError(resp.StatusCode, body); err != nil {
			report(err)
		}
	}

	// Warm phase: the whole working set is computed once through the gateway,
	// so each (unit, seed) record lives on exactly its ring owner. The flood
	// then replays the same set — all churn-era traffic is answerable from
	// caches, which is what makes moved keys visible as peer activity.
	for _, u := range units {
		for _, s := range warmSeeds {
			post(u, s)
		}
	}

	admin := func(method, path string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, gw.URL+path, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(AdminKeyHeader, "adm")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b := make([]byte, 0, 1024)
		buf := make([]byte, 1024)
		for {
			n, rerr := resp.Body.Read(buf)
			b = append(b, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, b
	}
	waitPosted := func(n uint64) {
		deadline := time.Now().Add(20 * time.Second)
		base := posted.Load()
		for posted.Load() < base+n {
			if time.Now().After(deadline) {
				t.Error("flood stalled; operator proceeding anyway")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < maxIter && !stop.Load(); i++ {
				post(units[(c+i)%len(units)], warmSeeds[i%len(warmSeeds)])
			}
		}(c)
	}

	// The operator script, concurrent with the flood.
	opDone := make(chan struct{})
	go func() {
		defer close(opDone)
		// Live join during the flood.
		waitPosted(20)
		epoch := g.Membership().Epoch
		body := fmt.Sprintf(`{"addr":%q,"epoch":%d}`, joiner.name, epoch)
		if code, b := admin(http.MethodPost, "/admin/shards", []byte(body)); code != http.StatusOK {
			t.Errorf("live join: %d: %s", code, b)
		}
		// Graceful leave with hot-entry push while traffic flows.
		waitPosted(20)
		epoch = g.Membership().Epoch
		path := fmt.Sprintf("/admin/shards/%s?epoch=%d", leaver.name, epoch)
		if code, b := admin(http.MethodDelete, path, nil); code != http.StatusOK {
			t.Errorf("graceful leave: %d: %s", code, b)
		}
		// SIGKILL a survivor mid-flood; warm-restart it on the same port.
		waitPosted(20)
		victim.kill()
		time.Sleep(400 * time.Millisecond)
		if err := victim.restart(); err != nil {
			t.Errorf("victim restart: %v", err)
		}
		// Let the prober re-admit it, then end the flood.
		time.Sleep(500 * time.Millisecond)
		stop.Store(true)
	}()
	wg.Wait()
	<-opDone
	for _, v := range violations {
		t.Error(v)
	}

	st := g.StatsSnapshot()
	if st.DoubleDeliveries != 0 {
		t.Errorf("doubleDeliveries=%d — a client saw two results for one request", st.DoubleDeliveries)
	}
	if st.Joins != 1 || st.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want 1 and 1", st.Joins, st.Leaves)
	}
	if st.Membership.Epoch != 2 {
		t.Errorf("final epoch %d, want 2", st.Membership.Epoch)
	}
	if !VerifyMembership("adm", st.Membership) {
		t.Error("final membership signature does not verify")
	}
	for _, s := range st.Membership.Shards {
		if s == leaver.name {
			t.Errorf("leaver %s still in the membership", leaver.name)
		}
	}

	// The moved keyspace must have moved *data*, not just routing: hot pushes
	// at the leave, peer hints on forwarded requests, and peer hits or
	// imports on the shards. Any of the three proves the handoff path ran;
	// all zero would mean ownership changed and every record was recomputed.
	peerActivity := st.HotPushed + st.PeerHints
	for _, s := range append(append([]*liveShard(nil), seeds...), joiner) {
		ps := s.srv.StatsSnapshot().Peer
		peerActivity += ps.Hits + ps.Imports
		if ps.Rejected != 0 || ps.ImportRejected != 0 {
			t.Errorf("shard %s: legality gate rejected peer records (rejected=%d importRejected=%d)",
				s.name, ps.Rejected, ps.ImportRejected)
		}
	}
	if peerActivity == 0 {
		t.Error("membership changed but no peer handoff activity at all (no pushes, hints, hits, or imports)")
	}
	t.Logf("churn flood: %d requests, hotPushed=%d pushErrs=%d peerHints=%d joins=%d leaves=%d epoch=%d",
		posted.Load(), st.HotPushed, st.HotPushErrors, st.PeerHints, st.Joins, st.Leaves, st.Membership.Epoch)

	// After the churn settles, the whole working set must serve legal 200s
	// again — including keys that moved twice.
	deadline := time.Now().Add(15 * time.Second)
	for _, u := range units {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("working set never fully recovered after churn; stats: %+v", g.StatsSnapshot())
			}
			url := fmt.Sprintf("%s/schedule?machine=%s&seed=%d", gw.URL, u.machine, warmSeeds[0])
			resp, err := client.Post(url, "text/plain", strings.NewReader(u.ddg))
			if err != nil {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			body := make([]byte, 0, 4096)
			buf := make([]byte, 4096)
			for {
				n, rerr := resp.Body.Read(buf)
				body = append(body, buf[:n]...)
				if rerr != nil {
					break
				}
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if err := clusterLegal(body, u.ddg, u.machine); err != nil {
					t.Error(err)
				}
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}
