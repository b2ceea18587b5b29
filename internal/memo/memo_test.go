package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"socrm/internal/snap"
)

// f64sCodec caches []float64 — enough structure to exercise round-trips.
type f64sCodec struct{}

func (f64sCodec) Encode(e *snap.Encoder, v any) { e.F64s(v.([]float64)) }
func (f64sCodec) Decode(d *snap.Decoder) (any, error) {
	v := d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

func keyOf(parts ...string) Key {
	h := NewHasher()
	for _, p := range parts {
		h.String(p)
	}
	return h.Sum()
}

func mustCache(t *testing.T, opt Options) *Cache {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestHasherDeterministicAndSensitive(t *testing.T) {
	if keyOf("a", "b") != keyOf("a", "b") {
		t.Fatal("same input hashed differently")
	}
	distinct := map[Key]string{}
	for _, parts := range [][]string{
		{"a", "b"}, {"b", "a"}, {"ab"}, {"a", "b", ""}, {"ab\x00"}, {""},
	} {
		k := keyOf(parts...)
		if prev, dup := distinct[k]; dup {
			t.Fatalf("collision between %q and %v", prev, parts)
		}
		distinct[k] = strings.Join(parts, "|")
	}
	h1 := NewHasher()
	h1.F64(1.5)
	h2 := NewHasher()
	h2.F64(2.5)
	if h1.Sum() == h2.Sum() {
		t.Fatal("distinct floats collided")
	}
}

func TestMemoryTierHitMissAndSharing(t *testing.T) {
	c := mustCache(t, Options{Version: "t"})
	var computes atomic.Int64
	compute := func() (any, error) {
		computes.Add(1)
		return []float64{1, 2, 3}, nil
	}
	k := keyOf("k1")
	v1, err := c.Do(k, f64sCodec{}, compute)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Do(k, f64sCodec{}, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computes.Load())
	}
	if &v1.([]float64)[0] != &v2.([]float64)[0] {
		t.Fatal("hit did not share the cached value")
	}
	if v3, ok := c.Lookup(k); !ok || &v3.([]float64)[0] != &v1.([]float64)[0] {
		t.Fatal("Lookup missed a resident entry")
	}
	if _, ok := c.Lookup(keyOf("absent")); ok {
		t.Fatal("Lookup hit an absent key")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := mustCache(t, Options{Version: "t"})
	k := keyOf("boom")
	_, err := c.Do(k, f64sCodec{}, func() (any, error) { return nil, fmt.Errorf("boom") })
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Do(k, f64sCodec{}, func() (any, error) { return []float64{7}, nil })
	if err != nil || v.([]float64)[0] != 7 {
		t.Fatalf("recovery compute: v=%v err=%v", v, err)
	}
}

func TestSingleflightSharesOneCompute(t *testing.T) {
	c := mustCache(t, Options{Version: "t"})
	var computes atomic.Int64
	release := make(chan struct{})
	k := keyOf("sf")
	const n = 16
	var wg sync.WaitGroup
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(k, f64sCodec{}, func() (any, error) {
				computes.Add(1)
				<-release
				return []float64{42}, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("computed %d times under singleflight, want 1", computes.Load())
	}
	for i := 1; i < n; i++ {
		if &vals[i].([]float64)[0] != &vals[0].([]float64)[0] {
			t.Fatal("waiters did not share the winner's value")
		}
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// Budget small enough that only a couple of entries fit per shard.
	c := mustCache(t, Options{Version: "t", MaxBytes: numShards * 64})
	big := make([]float64, 6) // 8-byte length prefix + 48 bytes
	for i := 0; i < 40; i++ {
		k := keyOf(fmt.Sprintf("e%d", i))
		if _, err := c.Do(k, f64sCodec{}, func() (any, error) { return big, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", numShards*64, st)
	}
	if st.Bytes > numShards*64 {
		t.Fatalf("resident bytes %d exceed budget: %+v", st.Bytes, st)
	}
	if st.Entries < 1 {
		t.Fatalf("eviction emptied the cache entirely: %+v", st)
	}
}

func TestOversizedEntryIsKeptNotThrashed(t *testing.T) {
	c := mustCache(t, Options{Version: "t", MaxBytes: numShards * 16})
	huge := make([]float64, 64) // far over the 16-byte shard budget
	k := keyOf("huge")
	if _, err := c.Do(k, f64sCodec{}, func() (any, error) { return huge, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("oversized entry was evicted at insert; it should be pinned until a successor arrives")
	}
}

func diskPathOf(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(p, ".memo") {
			found = p
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no .memo file under %s (err=%v)", dir, err)
	}
	return found
}

// freshCache opens a new Cache over the same dir — a "second process".
func freshCache(t *testing.T, dir, version string) *Cache {
	return mustCache(t, Options{Dir: dir, Version: version})
}

func TestDiskTierRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	k := keyOf("persist")
	want := []float64{3.14, 2.71, 1.41}
	c1 := freshCache(t, dir, "v1")
	if _, err := c1.Do(k, f64sCodec{}, func() (any, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats after write: %+v", st)
	}
	c2 := freshCache(t, dir, "v1")
	got, err := c2.Do(k, f64sCodec{}, func() (any, error) {
		t.Error("recomputed despite a valid disk entry")
		return nil, fmt.Errorf("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	g := got.([]float64)
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("disk round-trip mismatch: got %v want %v", g, want)
		}
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
}

// corrupt rewrites the stored entry through fn and asserts a fresh cache
// instance recomputes (and that the recompute result is correct).
func corruptionFallsBack(t *testing.T, name string, fn func(b []byte) []byte) {
	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		k := keyOf("victim")
		want := []float64{9, 8, 7}
		c1 := freshCache(t, dir, "v1")
		if _, err := c1.Do(k, f64sCodec{}, func() (any, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		p := diskPathOf(t, dir)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, fn(b), 0o644); err != nil {
			t.Fatal(err)
		}
		var recomputed atomic.Bool
		c2 := freshCache(t, dir, "v1")
		got, err := c2.Do(k, f64sCodec{}, func() (any, error) {
			recomputed.Store(true)
			return want, nil
		})
		if err != nil {
			t.Fatalf("corruption surfaced as an error: %v", err)
		}
		if !recomputed.Load() {
			t.Fatal("corrupt entry was served instead of recomputed")
		}
		g := got.([]float64)
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("got %v want %v", g, want)
			}
		}
	})
}

func TestDiskCorruptionFallsBackToRecompute(t *testing.T) {
	corruptionFallsBack(t, "truncated", func(b []byte) []byte { return b[:len(b)-5] })
	corruptionFallsBack(t, "truncated-into-header", func(b []byte) []byte { return b[:7] })
	corruptionFallsBack(t, "bit-flipped-payload", func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	})
	corruptionFallsBack(t, "bad-magic", func(b []byte) []byte {
		copy(b, "BADMAGIC")
		return b
	})
	corruptionFallsBack(t, "empty-file", func(b []byte) []byte { return nil })
	corruptionFallsBack(t, "length-lies", func(b []byte) []byte {
		b[8] ^= 0xff
		return b
	})
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	k := keyOf("versioned")
	c1 := freshCache(t, dir, "v1")
	if _, err := c1.Do(k, f64sCodec{}, func() (any, error) { return []float64{1}, nil }); err != nil {
		t.Fatal(err)
	}
	var recomputed atomic.Bool
	c2 := freshCache(t, dir, "v2")
	if _, err := c2.Do(k, f64sCodec{}, func() (any, error) {
		recomputed.Store(true)
		return []float64{2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed.Load() {
		t.Fatal("version bump did not invalidate the stale entry")
	}
	// Same version still hits.
	var again atomic.Bool
	c3 := freshCache(t, dir, "v1")
	if _, err := c3.Do(k, f64sCodec{}, func() (any, error) {
		again.Store(true)
		return nil, fmt.Errorf("unreachable")
	}); err != nil {
		t.Fatal(err)
	}
	if again.Load() {
		t.Fatal("v1 entry lost after writing v2")
	}
}

func TestConcurrentWritersSameDir(t *testing.T) {
	// Many cache instances sharing one dir, racing on the same keys:
	// exercises the O_EXCL temp + rename discipline. Every result must be
	// correct and every surviving file readable.
	dir := t.TempDir()
	const writers, keys = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := freshCache(t, dir, "race")
			for i := 0; i < keys; i++ {
				k := keyOf(fmt.Sprintf("shared%d", i))
				want := float64(i * 11)
				v, err := c.Do(k, f64sCodec{}, func() (any, error) { return []float64{want}, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v.([]float64)[0] != want {
					t.Errorf("writer %d key %d: got %v", w, i, v)
				}
			}
		}(w)
	}
	wg.Wait()
	// No temp debris left behind, and every final file validates.
	reader := freshCache(t, dir, "race")
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		if strings.Contains(p, ".tmp.") {
			t.Errorf("temp debris: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := keyOf(fmt.Sprintf("shared%d", i))
		v, err := reader.Do(k, f64sCodec{}, func() (any, error) {
			return nil, fmt.Errorf("file for key %d unreadable after racing writers", i)
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.([]float64)[0] != float64(i*11) {
			t.Fatalf("key %d content wrong after race: %v", i, v)
		}
	}
}
