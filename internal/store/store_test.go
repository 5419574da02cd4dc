package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schedule"
)

// mkRecord builds a tiny synthetic record; store tests exercise durability,
// not scheduling, so the content only has to round-trip.
func mkRecord(i int) *Record {
	key := make([]byte, 32)
	copy(key, fmt.Sprintf("key-%026d", i))
	return &Record{
		Key:     key,
		Machine: "raw4",
		Served:  "convergent",
		Graph:   []byte(fmt.Sprintf("unit g%d\n", i)),
		Placements: []schedule.Placement{
			{Cluster: i % 4, FU: 0, Start: i, Latency: 1},
		},
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// liveSet is a fake compaction source standing in for the engine's cache:
// the records added to it, oldest first.
type liveSet struct{ recs []*Record }

func (l *liveSet) live() []*Record { return l.recs }

// appendLive appends records 0..n-1 to s and adds each to l, the way the
// engine caches an entry before the flusher appends it.
func appendLive(t *testing.T, s *Store, l *liveSet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := mkRecord(i)
		l.recs = append(l.recs, rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

// collectGate records every key offered to the gate, accepting all.
func collectGate(keys *[]string) Gate {
	return func(rec *Record) error {
		*keys = append(*keys, string(rec.Key))
		return nil
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var l liveSet
	s, err := Open(Options{Dir: dir, NoFsync: true, Live: l.live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	const n = 5
	appendLive(t, s, &l, n)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	var keys []string
	rs, err := s2.Recover(collectGate(&keys))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Replayed != n || len(keys) != n {
		t.Fatalf("replayed %d records (gate saw %d), want %d; stats %+v", rs.Replayed, len(keys), n, rs)
	}
	if rs.DroppedCorrupt+rs.DroppedIllegal+rs.DroppedSkewed+rs.TruncatedTails+rs.SkippedFiles != 0 {
		t.Fatalf("clean store reported damage: %+v", rs)
	}
	for i, k := range keys {
		if want := string(mkRecord(i).Key); k != want {
			t.Fatalf("gate saw key %d as %q, want append order (%q)", i, k, want)
		}
	}
}

func TestAppendBeforeRecoverRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.Append(mkRecord(0)); err == nil {
		t.Fatal("Append before Recover succeeded")
	}
}

func TestLockfileExcludesSecondInstance(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	if _, err := Open(Options{Dir: dir, NoFsync: true}); err == nil {
		t.Fatal("second Open on a locked directory succeeded")
	} else if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second Open failed with %v, want an in-use error", err)
	}
	// Close releases the lock; a third instance may join.
	s.Close()
	s3 := mustOpen(t, dir)
	s3.Close()
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	var l liveSet
	s, err := Open(Options{Dir: dir, NoFsync: true, SnapshotEvery: 4, Live: l.live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	const n = 10
	appendLive(t, s, &l, n)
	if got := s.Stats().Snapshots; got < 2 {
		t.Fatalf("snapshots = %d after %d appends at interval 4, want >= 2", got, n)
	}
	s.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot files on disk")
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	rs, err := s2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotGen == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rs)
	}
	if rs.Replayed != n {
		t.Fatalf("replayed %d, want %d: %+v", rs.Replayed, n, rs)
	}
}

// newestWAL returns the path of the highest-generation WAL in dir.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL in %s (err %v)", dir, err)
	}
	// Lexicographic order is generation order (zero-padded names).
	newest := wals[0]
	for _, w := range wals[1:] {
		if w > newest {
			newest = w
		}
	}
	return newest
}

func TestTornTailStopsFileNotRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	wal := newestWAL(t, dir)
	s.Close()

	// Shear a few bytes off the last frame: the crash-mid-append shape.
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	rs, err := s2.Recover(nil)
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	if rs.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1: %+v", rs.TruncatedTails, rs)
	}
	if rs.Replayed != 2 {
		t.Fatalf("replayed %d, want the 2 intact records: %+v", rs.Replayed, rs)
	}
}

func TestCorruptRecordSkippedLaterRecordSurvives(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	wal := newestWAL(t, dir)
	s.Close()

	// Flip a byte inside the first record's payload (past the file header
	// and frame header): CRC catches it, framing stays intact, and the two
	// records after it must still replay.
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen+frameHdrLen+4] ^= 0xFF
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	rs, err := s2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DroppedCorrupt != 1 || rs.Replayed != 2 {
		t.Fatalf("DroppedCorrupt=%d Replayed=%d, want 1 and 2: %+v", rs.DroppedCorrupt, rs.Replayed, rs)
	}
	if rs.TruncatedTails != 0 {
		t.Fatalf("payload damage misreported as a torn tail: %+v", rs)
	}
}

func TestVersionSkewedRecordDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	future := mkRecord(0)
	future.V = RecordVersion + 41 // a record from a future format
	if err := s.Append(future); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkRecord(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	rs, err := s2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DroppedSkewed != 1 || rs.Replayed != 1 {
		t.Fatalf("DroppedSkewed=%d Replayed=%d, want 1 and 1: %+v", rs.DroppedSkewed, rs.Replayed, rs)
	}
}

func TestGateClassifiesDrops(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	i := 0
	rs, err := s2.Recover(func(rec *Record) error {
		i++
		switch i {
		case 1:
			return fmt.Errorf("%w: mangled content", ErrCorrupt)
		case 2:
			return fmt.Errorf("%w: machine changed", ErrSkewed)
		case 3:
			return errors.New("legality gate rejected it")
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.DroppedCorrupt != 1 || rs.DroppedSkewed != 1 || rs.DroppedIllegal != 1 || rs.Replayed != 1 {
		t.Fatalf("classification wrong: %+v", rs)
	}
}

func TestStaleSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	var l liveSet
	s, err := Open(Options{Dir: dir, NoFsync: true, SnapshotEvery: 2, Live: l.live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	appendLive(t, s, &l, 6)
	s.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots for the fallback, got %d", len(snaps))
	}
	// Mangle the newest snapshot's header: recovery must treat it as absent
	// and replay the older snapshot plus the WALs after it.
	newest := snaps[0]
	for _, sn := range snaps[1:] {
		if sn > newest {
			newest = sn
		}
	}
	if err := os.WriteFile(newest, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	rs, err := s2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SkippedFiles == 0 {
		t.Fatalf("mangled snapshot not counted as skipped: %+v", rs)
	}
	// Records 4 and 5 existed only in the destroyed snapshot (their WAL was
	// pruned by that compaction), so the fallback degrades to the older
	// snapshot's 4 records — a partially warm cache, never a wrong one.
	if rs.SnapshotGen == 0 || rs.Replayed != 4 {
		t.Fatalf("fallback replayed %d from gen %d, want 4 from the older snapshot: %+v",
			rs.Replayed, rs.SnapshotGen, rs)
	}
}

// TestCompactionWritesLiveInOrder: a snapshot holds exactly the records the
// Live source returns, in its order — not the WAL's records, not key order —
// and recovery hands them to the gate in that order.
func TestCompactionWritesLiveInOrder(t *testing.T) {
	dir := t.TempDir()
	// A subset of what is appended, out of append and key order, plus one
	// record that was never appended at all.
	want := []*Record{mkRecord(7), mkRecord(2), mkRecord(9), mkRecord(0)}
	s, err := Open(Options{Dir: dir, NoFsync: true, SnapshotEvery: 3,
		Live: func() []*Record { return want }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		if err := s.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots = %d after 3 appends at interval 3, want 1", got)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	var keys []string
	rs, err := s2.Recover(collectGate(&keys))
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotGen == 0 || rs.Replayed != uint64(len(want)) {
		t.Fatalf("replayed %d from gen %d, want the %d Live records from a snapshot: %+v",
			rs.Replayed, rs.SnapshotGen, len(want), rs)
	}
	for i, rec := range want {
		if keys[i] != string(rec.Key) {
			t.Fatalf("gate saw %q at %d, want %q (Live order)", keys[i], i, rec.Key)
		}
	}
}

func TestAbortReleasesLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	// A new instance can take over immediately, as after a real SIGKILL.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if _, err := s2.Recover(nil); err != nil {
		t.Fatal(err)
	}
}
