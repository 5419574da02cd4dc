package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/server"
)

// input is one distinct scheduling unit of a workload: the irtext body the
// service receives, plus the parsed graph and machine that responses are
// revalidated against.
type input struct {
	name    string // kernel@machine
	machine string
	body    []byte
	graph   *ir.Graph
	model   *machine.Model
}

// workload is a named traffic mix. Everything in it derives from the
// benchmark seed; the service only ever sees request bodies and queries.
type workload struct {
	name string
	// why is the one-line reason the workload exists; layers names the
	// layers it loads. Both are recorded in every result file.
	why, layers string
	inputs      []*input
	// order is the input index of each timed request: rounds of seeded
	// permutations, so any n consecutive requests from a round boundary
	// cover every input exactly once.
	order []int
	// viaGateway routes requests through a gateway with two shards instead
	// of straight to one schedd.
	viaGateway bool
	// fixedSeed, when set, gives every request the same seed= (every timed
	// request is a cache hit); otherwise timed request i carries seedBase+i
	// and warm-up request j carries seedBase-1-j (every request misses).
	fixedSeed bool
	seedBase  int64
	// replayRounds is how many times a traced run replays each input:
	// enough calls that per-layer means do not hinge on one slow call.
	replayRounds int
}

// rounds of permutations generated per workload; request indices wrap.
const rounds = 64

func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, seedBase: 1 + rng.Int63n(1<<40)}
	var err error
	switch name {
	case "cold":
		w.why = "13 paper kernels on raw16 and vliw4 with a fresh seed per request: every request misses the cache and walks the ladder"
		w.layers = "core, passes, listsched, robust, engine (cache writes), server"
		w.inputs, err = paperInputs()
		w.replayRounds = 3
	case "warm":
		w.why = "the cold bodies with one fixed seed through a gateway and two shards, caches filled in set-up: every request is a cache hit"
		w.layers = "cluster, irtext, ir, engine (cache reads), schedule, sim, server"
		w.inputs, err = paperInputs()
		w.viaGateway, w.fixedSeed = true, true
		w.replayRounds = 20
	case "scale":
		w.why = "Fig. 10 random layered DAGs of 1000-2000 instructions on vliw4 with a fresh seed per request: compile time at scale"
		w.layers = "listsched, core, passes, robust, engine, server"
		w.inputs, err = scaleInputs(rng)
		w.replayRounds = 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold, warm or scale)", name)
	}
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		w.order = append(w.order, rng.Perm(len(w.inputs))...)
	}
	return w, nil
}

// paperInputs is every kernel of bench.All on raw16 and vliw4.
func paperInputs() ([]*input, error) {
	var out []*input
	for _, k := range bench.All() {
		for _, m := range []struct {
			name     string
			clusters int
		}{{"raw16", 16}, {"vliw4", 4}} {
			in, err := newInput(k.Name+"@"+m.name, m.name, k.Build(m.clusters))
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// scaleSizes are the instruction counts of the scale workload's DAGs; the
// seed picks each DAG's shape, never its size, so every seed asks for the
// same amount of work.
var scaleSizes = []int{1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000}

func scaleInputs(rng *rand.Rand) ([]*input, error) {
	var out []*input
	for _, n := range scaleSizes {
		// Width as in the Fig. 10 study (internal/exp).
		g := bench.RandomLayered(n, n/12+4, 4, rng.Int63())
		in, err := newInput(fmt.Sprintf("rand%d@vliw4", n), "vliw4", g)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// newInput renders g as an irtext body and parses it back, so the checker
// validates against exactly the graph the service parses.
func newInput(name, mach string, g *ir.Graph) (*input, error) {
	body := []byte(irtext.String(g))
	pg, err := irtext.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	pg.Seal()
	m, err := machine.Named(mach)
	if err != nil {
		return nil, err
	}
	return &input{name: name, machine: mach, body: body, graph: pg, model: m}, nil
}

// timed returns the input and query of timed request i.
func (w *workload) timed(i int) (*input, string) {
	in := w.inputs[w.order[i%len(w.order)]]
	seed := w.seedBase
	if !w.fixedSeed {
		seed += int64(i)
	}
	return in, query(in, seed)
}

// warmup returns the query of the set-up request for input j.
func (w *workload) warmup(j int) string {
	seed := w.seedBase
	if !w.fixedSeed {
		seed -= 1 + int64(j)
	}
	return query(w.inputs[j], seed)
}

func query(in *input, seed int64) string {
	return fmt.Sprintf("/schedule?machine=%s&seed=%d&verify=true&fallback=true", in.machine, seed)
}

// service is one set-up of the system under test: a schedd, or a gateway
// over two schedd shards reached through an in-memory transport.
type service struct {
	handler http.Handler
	shards  []*server.Server
	gw      *cluster.Gateway
}

func newService(viaGateway bool, tr *memTransport) (*service, error) {
	if !viaGateway {
		s := server.New(server.Config{})
		return &service{handler: s.Handler(), shards: []*server.Server{s}}, nil
	}
	svc := &service{}
	tr.shards = make(map[string]http.Handler)
	var addrs []string
	for _, host := range []string{"shard-a:1", "shard-b:2"} {
		s := server.New(server.Config{ShardID: host})
		svc.shards = append(svc.shards, s)
		tr.shards[host] = s.Handler()
		addrs = append(addrs, host)
	}
	gw, err := cluster.NewGateway(cluster.Config{Shards: addrs, Transport: tr})
	if err != nil {
		return nil, err
	}
	gw.Start()
	svc.gw, svc.handler = gw, gw.Handler()
	return svc, nil
}

// close stops the gateway's prober; a bare schedd holds no goroutines.
func (s *service) close() {
	if s.gw != nil {
		s.gw.Close()
	}
}

// counters are the service's own counters, summed over shards.
type counters struct {
	hits, misses, shared, evictions, collisions uint64
	shed, admitted                              uint64
	waitMs                                      float64
	requests, forwards, hedges, reroutes        uint64
	doubleDeliveries                            uint64
}

func (s *service) counters() counters {
	var c counters
	for _, sh := range s.shards {
		st := sh.StatsSnapshot()
		c.hits += st.Engine.Hits
		c.misses += st.Engine.Misses
		c.shared += st.Engine.Shared
		c.evictions += st.Engine.Evictions
		c.collisions += st.Engine.Collisions
		a := st.Admission
		c.shed += a.ShedQueue + a.ShedRate + a.ShedQuota
		n := a.Completed + a.Failed
		c.admitted += n
		c.waitMs += a.MeanWaitMs * float64(n)
	}
	if s.gw != nil {
		st := s.gw.StatsSnapshot()
		c.requests, c.hedges, c.reroutes, c.doubleDeliveries = st.Requests, st.Hedges, st.Reroutes, st.DoubleDeliveries
		for _, sh := range st.Shards {
			c.forwards += sh.Forwarded
		}
	}
	return c
}

// minus returns the counts accrued since b. The double-delivery invariant
// counter is kept whole: it must read 0 over the service's whole life.
func (c counters) minus(b counters) counters {
	return counters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, shared: c.shared - b.shared,
		evictions: c.evictions - b.evictions, collisions: c.collisions - b.collisions,
		shed: c.shed - b.shed, admitted: c.admitted - b.admitted, waitMs: c.waitMs - b.waitMs,
		requests: c.requests - b.requests, forwards: c.forwards - b.forwards,
		hedges: c.hedges - b.hedges, reroutes: c.reroutes - b.reroutes,
		doubleDeliveries: c.doubleDeliveries,
	}
}

// memTransport is the gateway's round-tripper: it serves each forwarded
// request by calling the shard's handler directly, so no sockets are
// involved. When a recorder is attached, every /schedule call is a span
// under the gateway span that caused it.
type memTransport struct {
	shards map[string]http.Handler // by host:port; written before Start
	rec    atomic.Pointer[recorder]
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := t.shards[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("perfbench: no shard at %s", req.URL.Host)
	}
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	rw := httptest.NewRecorder()
	if rec := t.rec.Load(); rec != nil && req.URL.Path == "/schedule" {
		_, end := rec.child(req.Context(), "server.handle")
		h.ServeHTTP(rw, in)
		end()
	} else {
		h.ServeHTTP(rw, in)
	}
	return rw.Result(), nil
}
