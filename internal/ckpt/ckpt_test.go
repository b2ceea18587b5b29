package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replayAll reopens nothing; it replays the given store into a map.
func replayAll(t *testing.T, s *Store) (map[string][]byte, []string) {
	t.Helper()
	live := map[string][]byte{}
	damaged, err := s.Replay(func(id string, snapshot []byte) {
		live[id] = append([]byte(nil), snapshot...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return live, damaged
}

// reopen closes the store and opens the same directory fresh — the crash
// recovery path every test funnels through.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	dir := s.opt.Dir
	opt := s.opt
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Dir = dir
	ns, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestAppendReplayLastWins(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, id := range []string{"a", "b", "c"} {
			if err := s.Append(id, []byte(fmt.Sprintf("%s-v%d", id, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete("c"); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s)
	defer s.Close()
	live, damaged := replayAll(t, s)
	if len(damaged) != 0 {
		t.Fatalf("clean store reports damage: %v", damaged)
	}
	if len(live) != 2 {
		t.Fatalf("live = %d sessions, want 2 (c tombstoned)", len(live))
	}
	for _, id := range []string{"a", "b"} {
		if want := id + "-v2"; string(live[id]) != want {
			t.Fatalf("replay %s = %q, want %q (last record wins)", id, live[id], want)
		}
	}
}

func TestSegmentRollAndCompact(t *testing.T) {
	// Tiny segments force frequent rolls; the half-garbage trigger then
	// compacts automatically once superseded versions dominate.
	s, err := Open(Options{Dir: t.TempDir(), Sync: SyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{0xAB}, 100)
	for i := 0; i < 50; i++ {
		if err := s.Append("hot", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("cold", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	liveSessions, liveBytes, totalBytes := s.Stats()
	if liveSessions != 2 {
		t.Fatalf("live sessions = %d, want 2", liveSessions)
	}
	if totalBytes > 4*liveBytes {
		t.Fatalf("auto-compaction never ran: %d total vs %d live bytes", totalBytes, liveBytes)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(s.opt.Dir, "seg-*.ckpt"))
	if len(names) != 2 { // the compacted segment plus the fresh active one
		t.Fatalf("after compact %d segments remain: %v", len(names), names)
	}
	live, damaged := replayAll(t, s)
	if len(damaged) != 0 || len(live) != 2 || string(live["hot"]) != string(payload) || string(live["cold"]) != "keep" {
		t.Fatalf("post-compact replay = %d live, damage %v", len(live), damaged)
	}
}

// corruptionStore builds a store with a known record sequence across a
// sealed segment and an active one, then closes it so tests can vandalize
// the files directly.
func corruptionStore(t *testing.T) (dir string, ids []string) {
	t.Helper()
	dir = t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ids = []string{"s-1", "s-2", "s-3", "s-4"}
	for _, id := range ids {
		if err := s.Append(id, []byte("snapshot of "+id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ids
}

// lastSegment returns the most recently created non-empty segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		if st, err := os.Stat(names[i]); err == nil && st.Size() > int64(len(segMagic)) {
			return names[i]
		}
	}
	t.Fatal("no non-empty segment")
	return ""
}

// TestCorruptionTruncatedTail: a record torn by a crash mid-write must not
// take the intact records before it down with it.
func TestCorruptionTruncatedTail(t *testing.T) {
	dir, ids := corruptionStore(t)
	seg := lastSegment(t, dir)
	st, _ := os.Stat(seg)
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s.Close()
	live, damaged := replayAll(t, s)
	if len(damaged) != 1 || !strings.Contains(damaged[0], "torn") {
		t.Fatalf("damage report = %v, want one torn-record entry", damaged)
	}
	// The torn record is the last append (s-4); everything before survives.
	for _, id := range ids[:3] {
		if string(live[id]) != "snapshot of "+id {
			t.Fatalf("intact record %s lost after torn tail: %q", id, live[id])
		}
	}
	if _, found := live[ids[3]]; found {
		t.Fatalf("torn record %s replayed anyway", ids[3])
	}
}

// TestCorruptionBitFlip: a flipped payload byte fails the record CRC;
// replay keeps every record before it and reports the damage.
func TestCorruptionBitFlip(t *testing.T) {
	dir, ids := corruptionStore(t)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // inside the final record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live, damaged := replayAll(t, s)
	if len(damaged) != 1 || !strings.Contains(damaged[0], "CRC") {
		t.Fatalf("damage report = %v, want one CRC entry", damaged)
	}
	for _, id := range ids[:3] {
		if string(live[id]) != "snapshot of "+id {
			t.Fatalf("intact record %s lost after bit flip", id)
		}
	}
	if _, found := live[ids[3]]; found {
		t.Fatal("bit-flipped record replayed anyway")
	}
}

// TestCorruptionMissingSegment: a manifest naming a vanished segment file
// still recovers every record in the segments that do exist.
func TestCorruptionMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Spread records across several segments via tiny roll threshold.
	for i := 0; i < 12; i++ {
		if err := s.Append(fmt.Sprintf("s-%d", i), bytes.Repeat([]byte{byte(i)}, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatalf("open with missing segment: %v", err)
	}
	defer s.Close()
	live, damaged := replayAll(t, s)
	if len(damaged) != 1 {
		t.Fatalf("damage report = %v, want exactly the missing segment", damaged)
	}
	if len(live) == 0 || len(live) >= 12 {
		t.Fatalf("replay recovered %d sessions; want the intact prior segments only", len(live))
	}
	for id, snap := range live {
		var i int
		fmt.Sscanf(id, "s-%d", &i)
		if !bytes.Equal(snap, bytes.Repeat([]byte{byte(i)}, 80)) {
			t.Fatalf("recovered record %s corrupted", id)
		}
	}
}

// TestMaimWritesHook: the torn-write fault injector shortens records on
// disk; recovery still yields every intact prior record. This is the unit
// contract the chaos package's TornWrites builds on.
func TestMaimWritesHook(t *testing.T) {
	dir := t.TempDir()
	wrote := 0
	s, err := Open(Options{Dir: dir, Sync: SyncNone, MaimWrites: func(rec []byte) []byte {
		wrote++
		if wrote == 3 { // tear the third record in half
			return rec[:len(rec)/2]
		}
		return rec
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Append(fmt.Sprintf("s-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live, damaged := replayAll(t, s)
	if len(damaged) != 1 {
		t.Fatalf("damage = %v, want the torn third record", damaged)
	}
	if len(live) != 2 {
		t.Fatalf("recovered %d records, want the 2 intact ones", len(live))
	}
}

// TestSyncAlwaysSmoke just exercises the fsync path end to end.
func TestSyncAlwaysSmoke(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("b", nil); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestOpenStartsFreshSegment: appends after a reopen must never land in a
// file whose tail may be torn.
func TestOpenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	first := lastSegment(t, dir)
	s = reopen(t, s)
	defer s.Close()
	if err := s.Append("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	second := lastSegment(t, dir)
	if first == second {
		t.Fatalf("reopen kept appending to %s", first)
	}
}

// TestCrashMidCompactionRecovery simulates a crash at both sides of the
// compaction commit point (the manifest rename) and requires a clean Open
// with the full pre-crash live set either way.
func TestCrashMidCompactionRecovery(t *testing.T) {
	// seedStore builds a store with superseded versions of a..d and closes
	// it, returning the dir and the expected live set.
	seedStore := func(t *testing.T) (string, map[string]string) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for v := 0; v < 3; v++ {
			for _, id := range []string{"a", "b", "c", "d"} {
				val := fmt.Sprintf("%s-v%d", id, v)
				if err := s.Append(id, []byte(val)); err != nil {
					t.Fatal(err)
				}
				want[id] = val
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, want
	}
	check := func(t *testing.T, dir string, want map[string]string) {
		s, err := Open(Options{Dir: dir, Sync: SyncNone})
		if err != nil {
			t.Fatalf("post-crash open: %v", err)
		}
		defer s.Close()
		live, damaged := replayAll(t, s)
		if len(damaged) != 0 {
			t.Fatalf("post-crash replay reports damage: %v", damaged)
		}
		if len(live) != len(want) {
			t.Fatalf("post-crash live = %d sessions, want %d", len(live), len(want))
		}
		for id, val := range want {
			if string(live[id]) != val {
				t.Fatalf("post-crash %s = %q, want %q", id, live[id], val)
			}
		}
		// The store must stay fully usable: appends, another compaction,
		// another reopen.
		if err := s.Append("e", []byte("e-v0")); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("post-crash compaction: %v", err)
		}
	}

	t.Run("before-manifest-swap", func(t *testing.T) {
		// The compaction died after writing its new segment but before the
		// manifest rename committed it: the manifest still lists the old
		// segments, and an orphaned segment file sits in the directory with
		// exactly the sequence number the next roll will want.
		dir, want := seedStore(t)
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		var maxSeq uint64
		for _, line := range strings.Fields(string(data)) {
			if n, ok := seqOf(line); ok && n > maxSeq {
				maxSeq = n
			}
		}
		orphan := filepath.Join(dir, segName(maxSeq+1))
		// Half-written: header plus a torn record tail, as a crash leaves it.
		if err := os.WriteFile(orphan, []byte(segMagic+"\x40\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want)
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatal("orphaned uncommitted segment survived recovery")
		}
	})

	t.Run("after-manifest-swap", func(t *testing.T) {
		// The compaction died after the manifest rename but before deleting
		// the replaced segments: recovery reads only the manifest set and
		// sweeps the leftovers.
		dir, want := seedStore(t)
		s, err := Open(Options{Dir: dir, Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		// Compact with deletion "crashed": recreate the pre-delete state by
		// compacting and then dropping replaced-segment debris back in.
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		debris := filepath.Join(dir, segName(0))
		if err := os.WriteFile(debris, []byte(segMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want)
		if _, err := os.Stat(debris); !os.IsNotExist(err) {
			t.Fatal("replaced-segment debris survived recovery")
		}
	})
}

// TestRecordFraming pins the record bytes: u32 payload length, u32
// CRC-32 of the payload, then the payload (kind byte, u32-prefixed id,
// snapshot), all little-endian — built here byte by byte, independently of
// the encoder, for puts and tombstones alike.
func TestRecordFraming(t *testing.T) {
	for _, tc := range []struct {
		kind     int
		id       string
		snapshot []byte
	}{
		{recordPut, "r-1", bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 4500)},
		{recordPut, "", []byte{}},
		{recordDelete, "session-ü", nil},
	} {
		payload := []byte{byte(tc.kind)}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tc.id)))
		payload = append(payload, tc.id...)
		payload = append(payload, tc.snapshot...)
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
		if got := encodeRecord(tc.kind, tc.id, tc.snapshot); !bytes.Equal(got, want) {
			t.Fatalf("record for %q:\n got % x\nwant % x", tc.id, got[:min(len(got), 32)], want[:min(len(want), 32)])
		}
	}
}
