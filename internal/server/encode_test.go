package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/obs"
)

// checkEncoding compares appendScheduleResponse with encoding/json on resp:
// the same bytes, or an error from both.
func checkEncoding(t *testing.T, label string, resp *scheduleResponse) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(resp)
	got, gerr := appendScheduleResponse([]byte("prefix"), resp)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: encoding/json error %v, appender error %v", label, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("%s: appender overwrote the buffer it was given", label)
	}
	if got = got[len("prefix"):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: appender differs from encoding/json\n  got:  %.400q\n  want: %.400q", label, got, want.Bytes())
	}
}

// scheduled answers one request the way handleSchedule does, up to the
// response struct: parse the query and body, schedule through the engine,
// build the response.
func scheduled(t testing.TB, s *Server, query, ddg string, traced bool) scheduleResponse {
	t.Helper()
	req, err := s.parseRequest(httptest.NewRequest(http.MethodPost, "/schedule?"+query, nil))
	if err != nil {
		t.Fatal(err)
	}
	g, err := irtext.ParseString(ddg)
	if err != nil {
		t.Fatal(err)
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace(g.Name, req.mach.model.Name)
	}
	res := s.engine.Schedule(context.Background(), s.jobFor(req, g, tr))
	if res.Err != nil {
		t.Fatalf("%s: %v", query, res.Err)
	}
	resp := buildResponse(req.mach.model.Name, g.Name, res, 1234567*time.Nanosecond)
	resp.Trace = tr.Snapshot()
	return resp
}

// TestScheduleResponseMatchesEncodingJSON encodes every kernel × machine
// response both ways: a miss and a hit, untraced and traced, and a degraded
// answer with its ladder attempts.
func TestScheduleResponseMatchesEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules every kernel on three machines; skipped in -short")
	}
	s := New(Config{Seed: exp.Seed, Logf: func(string, ...any) {}})
	chaos := New(Config{Seed: exp.Seed, Logf: func(string, ...any) {},
		Chaos: &faultinject.Chaos{Class: faultinject.ChaosPassPanic, Seed: 1}})
	for _, mach := range []struct {
		name     string
		clusters int
	}{{"raw4", 4}, {"raw16", 16}, {"vliw4", 4}} {
		for _, k := range bench.All() {
			ddg := irtext.String(k.Build(mach.clusters))
			// A seed per trace setting, so each gets its own miss.
			for seed, traced := range []bool{false, true} {
				query := fmt.Sprintf("machine=%s&seed=%d", mach.name, seed+1)
				for _, pass := range []string{"miss", "hit"} {
					resp := scheduled(t, s, query, ddg, traced)
					if resp.CacheHit != (pass == "hit") {
						t.Fatalf("%s/%s %s: cacheHit %v", k.Name, mach.name, pass, resp.CacheHit)
					}
					resp.Shard, resp.Tenant, resp.Class = "s1", "acme", "gold"
					checkEncoding(t, fmt.Sprintf("%s/%s/%s/traced=%v", k.Name, mach.name, pass, traced), &resp)
				}
			}
			resp := scheduled(t, chaos, "machine="+mach.name, ddg, false)
			if !resp.Degraded || len(resp.Attempts) < 2 {
				t.Fatalf("%s/%s: chaos answer not degraded: %d attempts", k.Name, mach.name, len(resp.Attempts))
			}
			checkEncoding(t, fmt.Sprintf("%s/%s/degraded", k.Name, mach.name), &resp)
		}
	}
}

// FuzzScheduleResponse compares the appender with encoding/json on fuzzed
// fields: HTML characters, Unicode and invalid UTF-8 in the names; -0,
// tiny, huge and non-finite elapsed times; negative and large integers;
// nil, empty and non-empty placement and comm lists; and attempts and a
// trace present or absent.
func FuzzScheduleResponse(f *testing.F) {
	f.Add("cholesky", "raw16", "", "convergent", 0, 0, uint8(2), uint8(0), uint8(0), 1.5)
	f.Add("<a&b>", "raw4", "shard\"1\\", "list", -1, 1<<40, uint8(0), uint8(1), uint8(0xff), 1e-7)
	f.Add("émoji-☃\u2028\u2029", "vliw4", "\x00\x1f\b\f\n\r\t", "uas", 1<<40, -7, uint8(1), uint8(2), uint8(0x10), 1e21)
	f.Add("\xff\xfe\xc3", "\xed\xa0\x80", "\x7f", "", math.MinInt64, math.MaxInt64, uint8(3), uint8(3), uint8(0x2a), math.Copysign(0, -1))
	f.Add("g", "m", "s", "r", 3, 4, uint8(2), uint8(2), uint8(0x20), math.NaN())
	f.Add("g", "m", "s", "r", 3, 4, uint8(2), uint8(2), uint8(0x30), math.Inf(1))
	f.Add("g", "m", "s", "r", 3, 4, uint8(2), uint8(2), uint8(0), 999999999999999999999.0)
	f.Add("g", "m", "s", "r", 3, 4, uint8(2), uint8(2), uint8(0), 0.000001)
	f.Fuzz(func(t *testing.T, name, mach, shard, served string, a, b int, places, comms, flags uint8, elapsed float64) {
		resp := scheduleResponse{
			Graph: name, Machine: mach, Shard: shard, Tenant: served + name, Class: mach + shard,
			Served: served, Cycles: a, Comms: b, ElapsedMs: elapsed,
			CacheHit: flags&1 != 0, Shared: flags&2 != 0, Degraded: flags&4 != 0, PeerHit: flags&8 != 0,
		}
		vals := []int{a, b, -a, a ^ b, 1 << 40, -1}
		switch places % 4 {
		case 1:
			resp.Placements = []placementJSON{}
		case 2:
			resp.Placements = []placementJSON{{a, b, -a, 1 << 40}}
		case 3:
			for i := range vals {
				resp.Placements = append(resp.Placements, placementJSON{vals[i], vals[(i+1)%6], vals[(i+2)%6], vals[(i+3)%6]})
			}
		}
		switch comms % 4 {
		case 1:
			resp.CommList = []commJSON{}
		case 2:
			resp.CommList = []commJSON{{a, b, -b, a, 1 << 40}}
		case 3:
			for i := range vals {
				resp.CommList = append(resp.CommList, commJSON{vals[i], vals[(i+1)%6], vals[(i+2)%6], vals[(i+3)%6], vals[(i+4)%6]})
			}
		}
		if flags&16 != 0 {
			resp.Attempts = []attemptJSON{{Rung: served, Ms: elapsed / 3, Stage: name, Error: shard}, {Rung: mach, Ms: -0.25}}
		}
		if flags&32 != 0 {
			tr := obs.NewTrace(name, mach)
			tr.SetTenant(shard, served)
			tr.SetCachePath(obs.CacheHit)
			tr.RecordAttempt(obs.AttemptRec{Rung: served})
			resp.Trace = tr.Snapshot()
		}
		checkEncoding(t, "fuzz", &resp)
	})
}

// BenchmarkScheduleResponse times the encoding of a warm hit's 200 body
// alone, into a reused buffer, for cholesky on raw16 and a Figure 10
// region of 2000 instructions on vliw4.
func BenchmarkScheduleResponse(b *testing.B) {
	k, _ := bench.ByName("cholesky")
	cases := []struct {
		name, query string
		g           *ir.Graph
	}{
		{"cholesky/raw16", "machine=raw16", k.Build(16)},
		{"random2000/vliw4", "machine=vliw4", bench.RandomLayered(2000, 2000/12+4, 4, exp.Seed)},
	}
	s := New(Config{Seed: exp.Seed, Logf: func(string, ...any) {}})
	for _, c := range cases {
		ddg := irtext.String(c.g)
		scheduled(b, s, c.query, ddg, false)
		resp := scheduled(b, s, c.query, ddg, false) // the warm hit's body
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendScheduleResponse(buf[:0], &resp); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
