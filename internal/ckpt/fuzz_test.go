package ckpt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzReplaySegment hands arbitrary bytes to recovery as the only segment a
// store's manifest names, as a torn or foreign file on disk would. Open and
// Replay never panic or fail, never allocate more than the bytes can back,
// and only yield records whose CRC-framed bytes are in the input.
// Re-appending every replayed session to a fresh store replays to the same
// sessions. Seeds live in testdata/fuzz/FuzzReplaySegment.
func FuzzReplaySegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, so allow up to three recoveries, each
		// from its own copy of the directory, and judge the least: the
		// fuzzing engine's own goroutines allocate now and then, recovery
		// the same amount every time. Open and Replay each read the segment
		// once and copy what they keep; the constant covers the directory,
		// manifest and fresh active segment work of an empty store.
		limit := uint64(16*len(data) + 32<<10)
		var live map[string][]byte
		alloc := uint64(math.MaxUint64)
		for range 3 {
			dir := t.TempDir()
			const seg = "seg-00000001.ckpt"
			if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(seg+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(Options{Dir: dir, Sync: SyncNone})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			live, _ = replayAll(t, s)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if alloc <= limit {
				break
			}
		}
		if alloc > limit {
			t.Fatalf("recovering %d bytes allocated %d", len(data), alloc)
		}
		for id, snapshot := range live {
			if !bytes.Contains(data, encodeRecord(recordPut, id, snapshot)) {
				t.Fatalf("replayed session %q is not an intact record of the input", id)
			}
		}

		fresh, err := Open(Options{Dir: t.TempDir(), Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		for id, snapshot := range live {
			if err := fresh.Append(id, snapshot); err != nil {
				t.Fatal(err)
			}
		}
		again, damaged := replayAll(t, fresh)
		if len(damaged) > 0 {
			t.Fatalf("re-appended store is damaged: %v", damaged)
		}
		if len(again) != len(live) {
			t.Fatalf("re-appended store replays %d sessions, want %d", len(again), len(live))
		}
		for id, snapshot := range live {
			if got, ok := again[id]; !ok || !bytes.Equal(got, snapshot) {
				t.Fatalf("session %q replays differently after re-append", id)
			}
		}
	})
}
