// Package store is the crash-safe persistent backing layer for the engine's
// schedule cache: an append-only, length-prefixed, CRC-framed write-ahead
// log of accepted cache entries plus periodic compacted snapshots written
// via temp file + fsync + atomic rename.
//
// Durability here is deliberately cheap to get right because nothing loaded
// from disk is ever trusted: the engine re-runs the pristine-graph legality
// gate on every replayed record before it becomes servable (the Gate
// callback), so the store's only job is to never lose the *well-formed*
// prefix of what was written and to never crash on what was not. Recovery
// therefore replays snapshot-then-WAL, tolerates a torn tail (a crash mid
// append), skips checksum-failed and version-skewed records without giving
// up on the rest of the file, and treats any file whose header does not
// parse as absent. A record that passes CRC but was forged or bit-rotted in
// a way CRC32 cannot see is still rejected by the gate — corruption costs a
// recomputation, never an illegal schedule.
//
// On-disk layout (all integers little-endian):
//
//	<dir>/LOCK                flock'd fence against concurrent instances
//	<dir>/wal-<gen>.log       appended records since snapshot <gen>
//	<dir>/snap-<gen>.snap     compacted live set at generation <gen>
//
// The store keeps no record set of its own: a compaction writes exactly the
// records Options.Live returns — for the engine, its resident cache entries,
// least recently used first — so the persisted live set and its bound are
// the cache's.
//
// Every data file starts with a 16-byte header (magic, format version,
// kind, generation) and continues with frames:
//
//	[2B frame magic][4B payload length][4B CRC32-C of payload][payload]
//
// The payload is a gob-encoded Record. Recovery picks the newest snapshot
// whose header parses, replays it, then replays every WAL with generation
// >= the snapshot's in ascending order, so a stale snapshot next to a
// divergent WAL degrades to a partially warm cache, never a wrong one.
// Each successful Open starts a fresh WAL generation, so a torn tail left
// by a crash is never appended after.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/schedule"
)

const (
	fileMagic   uint32 = 0x43565353 // "SSVC": schedule-store versioned container
	fileVersion uint16 = 1
	kindWAL     byte   = 1
	kindSnap    byte   = 2

	frameMagic  uint16 = 0xC55C
	headerLen          = 16
	frameHdrLen        = 10
	// maxRecordLen caps one payload; anything larger in a length prefix is
	// framing corruption, not a real record.
	maxRecordLen = 16 << 20

	// RecordVersion is the current record-payload format. Records carrying
	// any other version are dropped as skewed at recovery.
	RecordVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Classification sentinels for Gate errors: a gate that wraps ErrCorrupt or
// ErrSkewed steers the recovery counters; any other error counts as
// dropped-illegal (the legality gate rejected a well-formed record).
var (
	ErrCorrupt = errors.New("store: corrupt record")
	ErrSkewed  = errors.New("store: version-skewed record")
)

// Record is one persisted cache entry. It carries everything needed to
// re-verify the schedule from scratch at recovery: the graph itself (irtext,
// in the numbering the schedule's canonical placements were derived from),
// the machine by name plus fingerprint (so a renamed or retuned model is
// detected as skew), and the placements/comms in canonical instruction
// order exactly as the engine caches them.
type Record struct {
	// V is the record format version (RecordVersion; stamped when written).
	V int
	// Key is the engine's 32-byte content-addressed cache key.
	Key []byte
	// Machine names the target model; Fingerprint pins its exact shape.
	Machine     string
	Fingerprint [32]byte
	// Served names the ladder rung that produced the schedule.
	Served string
	// Graph is the dependence graph in irtext form.
	Graph []byte
	// Placements and Comms are the cached schedule in canonical order.
	Placements []schedule.Placement
	Comms      []schedule.Comm
}

// Options configures Open. Zero values select defaults.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// FS is the filesystem seam; nil means the real filesystem.
	FS FS
	// NoFsync skips every fsync — faster and crash-unsafe, for tests and
	// benchmarks only.
	NoFsync bool
	// SnapshotEvery compacts the log after this many appends; zero
	// compacts only at the end of Recover.
	SnapshotEvery int
	// Live is the compaction source: the records a snapshot holds, in
	// replay order. It is called with the store's mutex held and must never
	// call back into the store. Nil disables compaction, leaving the WALs
	// as the only record.
	Live func() []*Record
}

// Gate re-verifies one replayed record before it is accepted. A nil error
// accepts; an error wrapping ErrCorrupt or ErrSkewed classifies the drop,
// and any other error counts as dropped-illegal. The engine's gate parses
// the embedded graph and re-runs the legality gate on the schedule.
type Gate func(*Record) error

// RecoveryStats reports what Recover found.
type RecoveryStats struct {
	// SnapshotGen is the generation of the snapshot replayed (0 = none).
	SnapshotGen uint64 `json:"snapshotGen"`
	// Replayed counts records the gate accepted.
	Replayed uint64 `json:"replayed"`
	// DroppedCorrupt counts records rejected by CRC, decode, or a gate
	// corruption verdict.
	DroppedCorrupt uint64 `json:"droppedCorrupt"`
	// DroppedIllegal counts well-formed records the gate's legality check
	// rejected — including corrupt-but-valid-CRC forgeries.
	DroppedIllegal uint64 `json:"droppedIllegal"`
	// DroppedSkewed counts records of another format version or machine
	// shape.
	DroppedSkewed uint64 `json:"droppedSkewed"`
	// TruncatedTails counts files whose replay stopped at a torn frame.
	TruncatedTails uint64 `json:"truncatedTails"`
	// SkippedFiles counts data files whose header did not parse.
	SkippedFiles uint64 `json:"skippedFiles"`
}

// Stats is a point-in-time snapshot of the store's own counters.
type Stats struct {
	// Generation is the current WAL/snapshot generation.
	Generation uint64 `json:"generation"`
	// Snapshots counts compactions performed by this instance.
	Snapshots uint64 `json:"snapshots"`
	// AppendErrors counts appends that failed at the IO layer; SyncErrors
	// counts failed fsyncs. Both leave the store serving (the entry stays
	// cached in RAM, it just will not survive a restart).
	AppendErrors uint64 `json:"appendErrors"`
	SyncErrors   uint64 `json:"syncErrors"`
}

// Store is the persistent schedule store. Open → Recover → Append/Sync →
// Close. All methods are safe for concurrent use.
type Store struct {
	opts Options
	fs   FS
	lock *os.File

	mu        sync.Mutex
	recovered bool
	closed    bool
	gen       uint64
	wal       File
	walBad    bool // last append tore the WAL tail; rotate before reuse
	appends   int
	snapshots uint64
	appendErr uint64
	syncErr   uint64
}

// Open creates (or joins) the store directory, acquires its exclusive lock,
// and returns a store ready for Recover. It performs no replay itself, so a
// server can bring its listener up and gate readiness on Recover.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no directory")
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// The lock goes through the real filesystem on purpose; see FS.
	lock, err := os.OpenFile(filepath.Join(opts.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is in use by another instance: %w", opts.Dir, err)
	}
	lock.Truncate(0)
	fmt.Fprintf(lock, "%d\n", os.Getpid())
	return &Store{opts: opts, fs: opts.FS, lock: lock}, nil
}

// dataFile is one parsed wal-/snap- directory entry.
type dataFile struct {
	name string
	kind byte
	gen  uint64
}

func parseDataName(name string) (dataFile, bool) {
	var kind byte
	var num string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		kind, num = kindWAL, name[4:len(name)-4]
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		kind, num = kindSnap, name[5:len(name)-5]
	default:
		return dataFile{}, false
	}
	gen, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return dataFile{}, false
	}
	return dataFile{name: name, kind: kind, gen: gen}, true
}

func (s *Store) path(name string) string { return filepath.Join(s.opts.Dir, name) }

// Recover replays snapshot-then-WAL through the gate, then opens a fresh
// WAL generation for appends. It must be called exactly once, before any
// Append. Recovery never fails on data corruption — corrupt bytes only move
// counters — so an error here means the directory itself is unusable.
func (s *Store) Recover(gate Gate) (RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rs RecoveryStats
	if s.closed {
		return rs, errors.New("store: closed")
	}
	if s.recovered {
		return rs, errors.New("store: already recovered")
	}
	entries, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return rs, fmt.Errorf("store: %w", err)
	}
	var snaps, wals []dataFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if df, ok := parseDataName(e.Name()); ok {
			if df.kind == kindSnap {
				snaps = append(snaps, df)
			} else {
				wals = append(wals, df)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].gen > snaps[j].gen }) // newest first
	sort.Slice(wals, func(i, j int) bool { return wals[i].gen < wals[j].gen })    // oldest first

	// The newest snapshot whose header parses wins; older ones are the
	// stale-snapshot fallback and are only read if the newer is mangled.
	var snapGen uint64
	for _, sn := range snaps {
		if s.replayFile(sn, gate, &rs) {
			snapGen = sn.gen
			rs.SnapshotGen = sn.gen
			break
		}
		rs.SkippedFiles++
	}
	maxGen := snapGen
	for _, w := range wals {
		if w.gen > maxGen {
			maxGen = w.gen
		}
		if w.gen < snapGen {
			continue // already compacted into the snapshot
		}
		if !s.replayFile(w, gate, &rs) {
			rs.SkippedFiles++
		}
	}
	// A fresh generation per Open: never append after a possibly torn tail.
	s.gen = maxGen + 1
	if err := s.openWALLocked(); err != nil {
		return rs, err
	}
	s.recovered = true
	// More than one data file replayed means this directory has history
	// worth folding down; compact so the next recovery reads one snapshot.
	if len(snaps)+len(wals) > 1 && s.opts.Live != nil {
		if err := s.compactLocked(); err != nil {
			s.appendErr++
		}
	}
	return rs, nil
}

// replayFile offers one data file's records to the gate. It reports
// whether the file header was valid; frame-level damage only moves stats.
func (s *Store) replayFile(df dataFile, gate Gate, rs *RecoveryStats) bool {
	f, err := s.fs.OpenFile(s.path(df.name), os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return false
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != fileMagic ||
		binary.LittleEndian.Uint16(hdr[4:6]) != fileVersion ||
		hdr[6] != df.kind ||
		binary.LittleEndian.Uint64(hdr[8:16]) != df.gen {
		return false
	}
	for {
		var fh [frameHdrLen]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err != io.EOF {
				rs.TruncatedTails++ // torn mid frame header
			}
			return true
		}
		n := binary.LittleEndian.Uint32(fh[2:6])
		// A bad frame magic or an absurd length means the framing itself is
		// gone; there is no way to resync, so the rest of the file is a tail.
		if binary.LittleEndian.Uint16(fh[0:2]) != frameMagic || n > maxRecordLen {
			rs.TruncatedTails++
			return true
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			rs.TruncatedTails++
			return true
		}
		// Payload damage leaves the framing intact, so the next record is
		// still reachable: skip, do not stop.
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(fh[6:10]) {
			rs.DroppedCorrupt++
			continue
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			rs.DroppedCorrupt++
			continue
		}
		if rec.V != RecordVersion {
			rs.DroppedSkewed++
			continue
		}
		if gate != nil {
			if err := gate(&rec); err != nil {
				switch {
				case errors.Is(err, ErrSkewed):
					rs.DroppedSkewed++
				case errors.Is(err, ErrCorrupt):
					rs.DroppedCorrupt++
				default:
					rs.DroppedIllegal++
				}
				continue
			}
		}
		rs.Replayed++
	}
}

func fileHeader(kind byte, gen uint64) []byte {
	h := make([]byte, headerLen)
	binary.LittleEndian.PutUint32(h[0:4], fileMagic)
	binary.LittleEndian.PutUint16(h[4:6], fileVersion)
	h[6] = kind
	binary.LittleEndian.PutUint64(h[8:16], gen)
	return h
}

func frame(payload []byte) []byte {
	buf := make([]byte, frameHdrLen+len(payload))
	binary.LittleEndian.PutUint16(buf[0:2], frameMagic)
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[6:10], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHdrLen:], payload)
	return buf
}

// openWALLocked creates wal-<gen>.log with its header.
func (s *Store) openWALLocked() error {
	f, err := s.fs.OpenFile(s.path(fmt.Sprintf("wal-%016d.log", s.gen)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(fileHeader(kindWAL, s.gen)); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoFsync {
		if err := f.Sync(); err != nil {
			s.syncErr++
		}
		if err := s.fs.SyncDir(s.opts.Dir); err != nil {
			s.syncErr++
		}
	}
	s.wal, s.walBad = f, false
	return nil
}

// encode stamps the record version and gob-encodes one frame payload.
func encode(rec *Record) ([]byte, error) {
	if rec.V == 0 {
		rec.V = RecordVersion
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if buf.Len() > maxRecordLen {
		return nil, fmt.Errorf("store: record of %d bytes exceeds frame limit", buf.Len())
	}
	return buf.Bytes(), nil
}

// Append writes one record to the WAL, compacting when the snapshot
// interval is reached. Durability is the caller's Sync cadence. An
// IO error is returned (and counted) but leaves the store serving: the WAL
// rotates to a clean file on the next append, so one torn write never
// poisons everything after it.
func (s *Store) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if !s.recovered {
		return errors.New("store: Append before Recover")
	}
	if len(rec.Key) == 0 {
		return errors.New("store: record has no key")
	}
	payload, err := encode(rec)
	if err != nil {
		s.appendErr++
		return err
	}
	if s.walBad {
		if err := s.rotateLocked(); err != nil {
			s.appendErr++
			return err
		}
	}
	if _, err := s.wal.Write(frame(payload)); err != nil {
		s.walBad = true
		s.appendErr++
		return fmt.Errorf("store: %w", err)
	}
	s.appends++
	if s.opts.Live != nil && s.opts.SnapshotEvery > 0 && s.appends >= s.opts.SnapshotEvery {
		if err := s.compactLocked(); err != nil {
			s.appendErr++ // compaction failure is not the append's problem
		}
	}
	return nil
}

// rotateLocked abandons the current WAL file for a fresh generation.
func (s *Store) rotateLocked() error {
	if s.wal != nil {
		s.wal.Close()
	}
	s.gen++
	return s.openWALLocked()
}

// compactLocked writes the records Options.Live returns, in that order, as
// snapshot generation gen+1 (temp file, fsync, atomic rename, directory
// fsync), rotates the WAL to the same generation, and prunes superseded
// files. A crash at any point leaves either the old snapshot+WALs or the
// new ones visible, never a mix. A record Append would refuse (it does not
// encode within the frame limit) is left out, as it was never appended.
func (s *Store) compactLocked() error {
	newGen := s.gen + 1
	tmp := s.path("snap.tmp")
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			f.Close()
			s.fs.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(fileHeader(kindSnap, newGen)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, rec := range s.opts.Live() {
		payload, err := encode(rec)
		if err != nil {
			continue
		}
		if _, err := w.Write(frame(payload)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoFsync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fs.Rename(tmp, s.path(fmt.Sprintf("snap-%016d.snap", newGen))); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	committed = true
	if !s.opts.NoFsync {
		if err := s.fs.SyncDir(s.opts.Dir); err != nil {
			s.syncErr++
		}
	}
	// The snapshot is durable; everything before it is garbage now.
	if s.wal != nil {
		s.wal.Close()
	}
	s.gen = newGen
	s.appends = 0
	s.snapshots++
	if err := s.openWALLocked(); err != nil {
		s.walBad = true
		return err
	}
	s.pruneLocked(newGen)
	return nil
}

// pruneLocked deletes WALs below the new generation and all but the two
// newest snapshots (the extra one is the stale-snapshot safety margin).
func (s *Store) pruneLocked(newGen uint64) {
	entries, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return
	}
	var snapGens []uint64
	for _, e := range entries {
		df, ok := parseDataName(e.Name())
		if !ok {
			continue
		}
		if df.kind == kindWAL && df.gen < newGen {
			s.fs.Remove(s.path(df.name))
		}
		if df.kind == kindSnap {
			snapGens = append(snapGens, df.gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	if len(snapGens) > 2 {
		for _, g := range snapGens[2:] {
			s.fs.Remove(s.path(fmt.Sprintf("snap-%016d.snap", g)))
		}
	}
}

// Sync makes every appended record durable (no-op under NoFsync).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.recovered || s.opts.NoFsync || s.walBad {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		s.syncErr++
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Stats returns the store's own counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Generation:   s.gen,
		Snapshots:    s.snapshots,
		AppendErrors: s.appendErr,
		SyncErrors:   s.syncErr,
	}
}

// Close syncs, closes the WAL, and releases the directory lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.wal != nil {
		if !s.opts.NoFsync && !s.walBad {
			if serr := s.wal.Sync(); serr != nil {
				s.syncErr++
				err = serr
			}
		}
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.lock.Close() // releases the flock
	return err
}

// Abort drops the store without flushing anything — the in-process stand-in
// for SIGKILL in crash-recovery tests. Whatever the OS already holds for the
// WAL stays (as after a real kill); nothing else is made durable.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.wal != nil {
		s.wal.Close()
	}
	s.lock.Close()
}
