// Package ckpt is the durable half of session fault tolerance: an
// append-compact on-disk store for session checkpoint records (the
// serve.ExportSession envelope is the record payload — the export format IS
// the checkpoint format). The layout is built for crash recovery, not for
// query: length-prefixed records with a CRC each, appended to segment files
// listed by an atomically-swapped manifest, replayed front to back with
// last-record-wins per session id.
//
// Crash-safety model:
//
//   - Every record carries its own CRC32 over the payload, so a torn write
//     (power cut mid-record, kill -9 between the length prefix and the
//     payload) is detected on replay and truncates recovery to the last
//     intact record of that segment — never a half-restored session.
//   - The manifest (the list of live segments) is replaced by
//     write-to-temp-then-rename, the only atomic file operation the
//     filesystem offers, so a crash mid-compaction leaves either the old
//     segment set or the new one, both complete.
//   - Open always starts a fresh active segment instead of appending after
//     a possibly-torn tail, so new records land on a clean prefix.
//   - The fsync policy is explicit: SyncAlways (default) syncs after every
//     append — a crashed backend loses at most the record being written —
//     while SyncNone leaves flushing to the OS for throughput and accepts
//     losing the page cache's worth of tail records.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"socrm/internal/snap"
)

// segMagic brands every segment file so replay never walks a foreign file.
const segMagic = "SOCKPT01"

// manifestName is the segment list; swapped atomically via rename.
const manifestName = "MANIFEST"

// Record kinds. A put carries a session snapshot; a delete is a tombstone
// that stops replay from resurrecting a closed or migrated-away session.
const (
	recordPut    = 1
	recordDelete = 2
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a crash loses at most the
	// record being written. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs on append (Close still flushes): the OS decides
	// when records become durable, trading a crash window for throughput.
	SyncNone
)

// Options configure a Store.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 4 MiB). Rolling bounds replay work per file and gives
	// compaction units to collect.
	SegmentBytes int64
	// MaimWrites, when non-nil, may shorten a record's bytes before they
	// hit the file — the fault-injection hook behind torn-checkpoint-write
	// chaos testing. Production callers leave it nil.
	MaimWrites func(record []byte) []byte
}

// Store is an append-compact checkpoint store. All methods are safe for
// concurrent use; appends serialize on one mutex (the checkpoint path is a
// background flusher, not a hot path).
type Store struct {
	mu  sync.Mutex
	opt Options

	segments   []string // manifest order, oldest first; last is active
	active     *os.File
	activeSize int64
	nextSeq    uint64

	// liveBytes tracks the latest put record size per live id; totalBytes
	// sums every record ever appended to the current segment set. Their gap
	// is garbage, the compaction trigger.
	liveBytes  map[string]int64
	liveSum    int64
	totalBytes int64
}

// Open opens (or creates) the store in opt.Dir, replays the existing
// segments to rebuild the live index, and starts a fresh active segment.
// Damage found while scanning (torn tails, CRC mismatches, missing
// segments) is tolerated — recovery keeps every intact prior record — and
// reported by Replay.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("ckpt: Options.Dir is empty")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Store{opt: opt, liveBytes: map[string]int64{}}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	// Sweep crash debris: a compaction (or roll) that died between creating
	// its new segment file and swapping the manifest leaves an uncommitted
	// segment on disk. Its records are either duplicated by the manifest set
	// or were never acknowledged, so the file is deleted — but its sequence
	// number must still advance nextSeq, or the next roll's O_EXCL create
	// would collide with the leftover name and fail the Open.
	inManifest := make(map[string]bool, len(s.segments))
	for _, seg := range s.segments {
		inManifest[seg] = true
	}
	if entries, err := os.ReadDir(opt.Dir); err == nil {
		for _, ent := range entries {
			n, found := seqOf(ent.Name())
			if !found {
				continue
			}
			if n >= s.nextSeq {
				s.nextSeq = n + 1
			}
			if !inManifest[ent.Name()] {
				_ = os.Remove(filepath.Join(opt.Dir, ent.Name()))
			}
		}
	}
	// Rebuild the live index and find the next segment sequence number.
	for _, seg := range s.segments {
		if n, found := seqOf(seg); found && n >= s.nextSeq {
			s.nextSeq = n + 1
		}
		s.scanSegment(seg, func(kind int, id string, payload []byte, recBytes int64) {
			s.index(kind, id, recBytes)
		})
	}
	if err := s.rollLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// segName formats a segment file name; seqOf parses one back.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.ckpt", seq) }

func seqOf(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "seg-%d.ckpt", &n); err != nil {
		return 0, false
	}
	return n, true
}

// loadManifest reads the segment list; a missing manifest is an empty store.
func (s *Store) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(s.opt.Dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, found := seqOf(line); !found {
			return fmt.Errorf("ckpt: manifest names %q, not a segment", line)
		}
		s.segments = append(s.segments, line)
	}
	return nil
}

// writeManifestLocked atomically replaces the manifest with the current
// segment list: write a temp file, fsync it, rename over the manifest, and
// fsync the directory so the rename itself is durable.
func (s *Store) writeManifestLocked() error {
	path := filepath.Join(s.opt.Dir, manifestName)
	tmp := path + ".tmp"
	body := strings.Join(s.segments, "\n") + "\n"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.WriteString(body); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if s.opt.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("ckpt: syncing manifest: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: swapping manifest: %w", err)
	}
	if s.opt.Sync == SyncAlways {
		s.syncDir()
	}
	return nil
}

// syncDir makes directory-level changes (renames, new files) durable.
func (s *Store) syncDir() {
	if d, err := os.Open(s.opt.Dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// rollLocked seals the active segment (if any) and starts a fresh one,
// updating the manifest. Every Open rolls so appends never continue after a
// possibly-torn tail.
func (s *Store) rollLocked() error {
	if s.active != nil {
		if s.opt.Sync != SyncAlways {
			_ = s.active.Sync() // seal durably even under SyncNone
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("ckpt: sealing segment: %w", err)
		}
		s.active = nil
	}
	name := segName(s.nextSeq)
	s.nextSeq++
	f, err := os.OpenFile(filepath.Join(s.opt.Dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: creating segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if s.opt.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	s.active = f
	s.activeSize = int64(len(segMagic))
	s.segments = append(s.segments, name)
	return s.writeManifestLocked()
}

// encodeRecord frames one record: u32 payload length, u32 CRC32(payload),
// payload. The payload is snap-encoded (kind, id, snapshot bytes). The
// record is built in one exactly-sized buffer.
func encodeRecord(kind int, id string, snapshot []byte) []byte {
	n := 1 + 4 + len(id) + len(snapshot)
	var e snap.Encoder
	e.Grow(8 + n)
	e.U32(uint32(n))
	e.U32(0) // CRC, filled in once the payload is written
	e.U8(uint8(kind))
	e.String(id)
	rec := append(e.Bytes(), snapshot...)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// Append records a session snapshot. The snapshot bytes are copied into the
// record before the call returns.
func (s *Store) Append(id string, snapshot []byte) error {
	return s.append(recordPut, id, snapshot)
}

// Delete records a tombstone: replay will not resurrect the session. Closed
// and migrated-away sessions are deleted so a restart does not bring back
// state that lives elsewhere now.
func (s *Store) Delete(id string) error {
	return s.append(recordDelete, id, nil)
}

func (s *Store) append(kind int, id string, snapshot []byte) error {
	rec := encodeRecord(kind, id, snapshot)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("ckpt: store is closed")
	}
	if s.activeSize > int64(len(segMagic)) && s.activeSize+int64(len(rec)) > s.opt.SegmentBytes {
		if err := s.maybeCompactLocked(); err != nil {
			return err
		}
	}
	wire := rec
	if s.opt.MaimWrites != nil {
		wire = s.opt.MaimWrites(rec)
	}
	if _, err := s.active.Write(wire); err != nil {
		return fmt.Errorf("ckpt: appending: %w", err)
	}
	if s.opt.Sync == SyncAlways {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("ckpt: syncing: %w", err)
		}
	}
	s.activeSize += int64(len(wire))
	s.index(kind, id, int64(len(rec)))
	return nil
}

// index maintains the live/garbage accounting for one appended record.
func (s *Store) index(kind int, id string, recBytes int64) {
	s.totalBytes += recBytes
	switch kind {
	case recordPut:
		s.liveSum += recBytes - s.liveBytes[id]
		s.liveBytes[id] = recBytes
	case recordDelete:
		s.liveSum -= s.liveBytes[id]
		delete(s.liveBytes, id)
	}
}

// maybeCompactLocked rolls the active segment; when more than half of the
// stored bytes are garbage (superseded puts, tombstoned sessions), it
// compacts the whole store down to the live set first.
func (s *Store) maybeCompactLocked() error {
	if s.totalBytes > 2*s.liveSum {
		return s.compactLocked()
	}
	return s.rollLocked()
}

// Compact rewrites the store down to one segment holding only the latest
// record of each live session, then swaps the manifest. Disk usage after a
// long run returns to O(live sessions).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("ckpt: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Seal the active segment so its records are on disk for the rescan.
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	live, _ := s.replayLocked()
	old := s.segments
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	s.active = nil

	// Write the live set into one fresh segment...
	name := segName(s.nextSeq)
	s.nextSeq++
	f, err := os.OpenFile(filepath.Join(s.opt.Dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	size := int64(len(segMagic))
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic segment bytes for a given live set
	s.liveBytes = make(map[string]int64, len(ids))
	s.liveSum, s.totalBytes = 0, 0
	for _, id := range ids {
		rec := encodeRecord(recordPut, id, live[id])
		if _, err := f.Write(rec); err != nil {
			f.Close()
			return fmt.Errorf("ckpt: compacting: %w", err)
		}
		size += int64(len(rec))
		s.index(recordPut, id, int64(len(rec)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}

	// ...swap the manifest to it (the atomic commit point), then open a new
	// active segment and drop the replaced files.
	s.segments = []string{name}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	if err := s.rollLocked(); err != nil {
		return err
	}
	for _, seg := range old {
		_ = os.Remove(filepath.Join(s.opt.Dir, seg))
	}
	return nil
}

// Replay walks every segment in manifest order and hands the latest intact
// snapshot of each live (non-tombstoned) session to fn. Damage — a missing
// segment, a torn tail, a CRC mismatch — stops the damaged segment's scan
// at the last intact record and is reported in damaged; everything intact
// before the damage is still recovered.
func (s *Store) Replay(fn func(id string, snapshot []byte)) (damaged []string, err error) {
	s.mu.Lock()
	if s.active != nil {
		_ = s.active.Sync()
	}
	live, damaged := s.replayLocked()
	s.mu.Unlock()
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn(id, live[id])
	}
	return damaged, nil
}

// replayLocked scans the segment set into a last-wins live map.
func (s *Store) replayLocked() (map[string][]byte, []string) {
	live := map[string][]byte{}
	var damaged []string
	for _, seg := range s.segments {
		if msg := s.scanSegment(seg, func(kind int, id string, payload []byte, _ int64) {
			switch kind {
			case recordPut:
				live[id] = append([]byte(nil), payload...)
			case recordDelete:
				delete(live, id)
			}
		}); msg != "" {
			damaged = append(damaged, msg)
		}
	}
	return live, damaged
}

// scanSegment reads one segment front to back, calling fn for each intact
// record. It returns a damage description ("" when clean); scanning stops
// at the first torn or corrupt record, keeping every record before it.
func (s *Store) scanSegment(seg string, fn func(kind int, id string, snapshot []byte, recBytes int64)) string {
	data, err := os.ReadFile(filepath.Join(s.opt.Dir, seg))
	if err != nil {
		return fmt.Sprintf("%s: %v", seg, err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return fmt.Sprintf("%s: bad segment header", seg)
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < 8 {
			return fmt.Sprintf("%s: torn record header at offset %d", seg, off)
		}
		h := snap.NewDecoder(data[off : off+8])
		plen := int(h.U32())
		crc := h.U32()
		if plen < 0 || off+8+plen > len(data) {
			return fmt.Sprintf("%s: torn record (%d payload bytes claimed, %d remain) at offset %d",
				seg, plen, len(data)-off-8, off)
		}
		payload := data[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return fmt.Sprintf("%s: CRC mismatch at offset %d", seg, off)
		}
		d := snap.NewDecoder(payload)
		kind := int(d.U8())
		id := d.String()
		if d.Err() != nil || (kind != recordPut && kind != recordDelete) || id == "" {
			return fmt.Sprintf("%s: malformed record at offset %d", seg, off)
		}
		snapshot := payload[len(payload)-d.Remaining():]
		fn(kind, id, snapshot, int64(8+plen))
		off += 8 + plen
	}
	return ""
}

// Stats reports the store's size accounting: live session count, live
// bytes, and total stored bytes (the difference is compactable garbage).
func (s *Store) Stats() (liveSessions int, liveBytes, totalBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveBytes), s.liveSum, s.totalBytes
}

// Close flushes and closes the active segment. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}
