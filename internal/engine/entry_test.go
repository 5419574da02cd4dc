package engine

// Cache entries hold placements and comms in int32 fields. These tests pin
// what that costs in memory and what happens to a value that does not fit:
// a computed schedule is served uncached, a stored or peer record is
// rejected, and nothing is ever truncated.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/store"
)

// farShift moves a schedule past the int32 range. It is a multiple of 2^32,
// so a narrowing that truncated would land every value back on the
// unshifted schedule, which is legal too.
const farShift = 1 << 32

// shiftSchedule moves every issue, departure and arrival cycle by d; a
// legal schedule stays legal.
func shiftSchedule(pl []schedule.Placement, comms []schedule.Comm, d int) {
	for i := range pl {
		pl[i].Start += d
	}
	for k := range comms {
		comms[k].Depart += d
		comms[k].Arrive += d
	}
}

// TestEntryFootprint: a 2000-instruction random region on vliw4 is held at
// 16 B per instruction and 20 B per comm.
func TestEntryFootprint(t *testing.T) {
	m, err := machine.Named("vliw4")
	if err != nil {
		t.Fatal(err)
	}
	j := Job{
		Graph:    bench.RandomLayered(2000, 2000/12+4, m.NumClusters, testSeed),
		Machine:  m,
		Opts:     robust.Options{Ladder: []robust.Rung{robust.ListRung(m)}},
		LadderID: "rung:list",
	}
	e := New(1, 4)
	if res := e.Schedule(context.Background(), j); res.Err != nil {
		t.Fatal(res.Err)
	}
	key, _ := e.CacheKey(j)
	ent, ok := e.cache.peek(key)
	if !ok {
		t.Fatal("entry not resident")
	}
	n, c := j.Graph.Len(), len(ent.comms)
	if c == 0 {
		t.Fatal("no comms: the footprint of a comm is untested")
	}
	if got := cap(ent.placements) * int(unsafe.Sizeof(ent.placements[0])); got > 16*n {
		t.Errorf("placements take %d B for %d instructions, want at most 16 B each", got, n)
	}
	if got := cap(ent.comms) * int(unsafe.Sizeof(ent.comms[0])); got > 20*c {
		t.Errorf("comms take %d B for %d comms, want at most 20 B each", got, c)
	}
}

// TestWideScheduleServedUncached: a rung whose legal schedule starts past
// the int32 range is served exactly, to the flight's leader and to a
// waiter alike, and counted uncacheable every time; no entry is made.
func TestWideScheduleServedUncached(t *testing.T) {
	m := machine.Chorus(4)
	k, _ := bench.ByName("fir")
	g := k.Build(m.NumClusters)
	list := robust.ListRung(m)
	started, release := make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	wide := robust.Rung{Name: "wide-list", Run: func(ctx context.Context, gr *ir.Graph) (*schedule.Schedule, error) {
		startOnce.Do(func() { close(started) })
		<-release
		s, err := list.Run(ctx, gr)
		if err == nil {
			shiftSchedule(s.Placements, s.Comms, farShift)
		}
		return s, err
	}}
	j := Job{
		Graph:    g,
		Machine:  m,
		Opts:     robust.Options{Ladder: []robust.Rung{wide}},
		LadderID: "rung:wide-list",
	}
	want, err := list.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	shiftSchedule(want.Placements, want.Comms, farShift)
	if want.Length() <= math.MaxInt32 {
		t.Fatal("the shifted schedule fits in int32")
	}

	e := New(2, 16)
	var wg sync.WaitGroup
	results := make([]Result, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = e.Schedule(context.Background(), j) }()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); results[1] = e.Schedule(context.Background(), j) }()
	time.Sleep(100 * time.Millisecond) // let the waiter join the flight
	close(release)
	wg.Wait()
	results = append(results, e.Schedule(context.Background(), j))

	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.CacheHit || r.Served != "wide-list" {
			t.Errorf("request %d: cache hit %v, served %q", i, r.CacheHit, r.Served)
		}
		if !sameSchedule(r.Schedule, want) {
			t.Errorf("request %d: served schedule differs from the rung's", i)
		}
		if err := r.Schedule.Validate(); err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	// Two misses, not three: the waiter joined the leader's flight and
	// computed only once the flight could give it nothing to rehydrate.
	if st := e.Stats(); st.Uncacheable != 3 || st.Misses != 2 || st.Size != 0 {
		t.Errorf("uncacheable %d, misses %d, size %d; want 3, 2 and 0", st.Uncacheable, st.Misses, st.Size)
	}
}

// TestWideRecordRejected: a record whose schedule lies past the int32
// range is refused by a peer import and dropped, as corrupt, by store
// recovery.
func TestWideRecordRejected(t *testing.T) {
	m := machine.Raw(4)
	k, _ := bench.ByName("fir")
	j := Job{
		Graph:    k.Build(m.NumClusters),
		Machine:  m,
		Opts:     robust.Options{Ladder: []robust.Rung{robust.ListRung(m)}},
		LadderID: "rung:list",
	}
	src := New(1, 4)
	if res := src.Schedule(context.Background(), j); res.Err != nil {
		t.Fatal(res.Err)
	}
	key, _ := src.CacheKey(j)
	rec, ok := src.ExportRecord(key)
	if !ok {
		t.Fatal("entry not exportable")
	}
	if len(rec.Comms) == 0 {
		t.Fatal("no comms to shift")
	}

	// Shifting only the comms, or only the placements, leaves an illegal
	// schedule; the range check must refuse either before legality does.
	for _, part := range []string{"placements", "comms", "both"} {
		wide := *rec
		wide.Placements = append([]schedule.Placement(nil), rec.Placements...)
		wide.Comms = append([]schedule.Comm(nil), rec.Comms...)
		switch part {
		case "placements":
			shiftSchedule(wide.Placements, nil, farShift)
		case "comms":
			shiftSchedule(nil, wide.Comms, farShift)
		default:
			shiftSchedule(wide.Placements, wide.Comms, farShift)
		}
		if err := New(1, 4).ImportRecord(&wide); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s past int32: import error %v, want store.ErrCorrupt", part, err)
		}
		if part != "both" {
			continue
		}

		dir := t.TempDir()
		st, err := store.Open(store.Options{Dir: dir, NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(nil); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(&wide); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		e := New(1, 4)
		if err := e.AttachStore(PersistConfig{Dir: dir, NoFsync: true}); err != nil {
			t.Fatal(err)
		}
		rs, err := e.RecoverStore()
		e.CloseStore()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Replayed != 0 || rs.DroppedCorrupt != 1 || rs.DroppedIllegal+rs.DroppedSkewed != 0 {
			t.Errorf("recovery %+v, want the one record dropped as corrupt", rs)
		}
	}
}
