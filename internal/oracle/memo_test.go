package oracle

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"socrm/internal/memo"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

func testApp(snippets int) workload.Application {
	app := workload.MiBench(42)[0]
	if len(app.Snippets) > snippets {
		app.Snippets = app.Snippets[:snippets]
	}
	return app
}

func newTestCache(t *testing.T) *memo.Cache {
	t.Helper()
	c, err := memo.New(memo.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLabelMemoizedMatchesDirect(t *testing.T) {
	p := soc.NewXU3()
	app := testApp(4)
	for _, objName := range []string{ObjEnergy, ObjEDP} {
		direct := NewNamed(p, objName)
		want := direct.LabelAppWith(app, 1)

		memoized := NewNamed(p, objName)
		memoized.Memo = newTestCache(t)
		cold := memoized.LabelAppWith(app, 1)
		warm := memoized.LabelAppWith(app, 1)
		if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
			t.Fatalf("%s: memoized labels differ from direct sweep", objName)
		}
		if st := memoized.Memo.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: stats %+v, want 1 miss + 1 hit", objName, st)
		}
	}
}

func TestLabelCodecRoundTripsThroughDisk(t *testing.T) {
	p := soc.NewXU3()
	app := testApp(3)
	dir := t.TempDir()
	mk := func() *Oracle {
		c, err := memo.New(memo.Options{Dir: dir, Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		o := NewNamed(p, ObjEnergy)
		o.Memo = c
		return o
	}
	want := mk().LabelAppWith(app, 1) // computes and persists
	got := mk().LabelAppWith(app, 1)  // fresh cache: must decode from disk
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk round-trip changed labels")
	}
}

func TestDistinctObjectivesDistinctEntries(t *testing.T) {
	p := soc.NewXU3()
	app := testApp(3)
	cache := newTestCache(t)
	energy := NewNamed(p, ObjEnergy)
	energy.Memo = cache
	edp := NewNamed(p, ObjEDP)
	edp.Memo = cache
	le := energy.LabelAppWith(app, 1)
	ld := edp.LabelAppWith(app, 1)
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("objectives shared a cache entry: %+v", st)
	}
	if reflect.DeepEqual(le, ld) {
		t.Fatal("energy and edp labels identical — suspicious for these apps")
	}
}

func TestUnnamedOracleNeverTouchesCache(t *testing.T) {
	p := soc.NewXU3()
	cache := newTestCache(t)
	o := New(p, Energy) // no ObjName: memoization must stay off
	o.Memo = cache
	o.LabelAppWith(testApp(2), 1)
	if st := cache.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("unnamed oracle used the cache: %+v", st)
	}
}

func TestNewNamedPanicsOnUnknownObjective(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNamed accepted an unknown objective")
		}
	}()
	NewNamed(soc.NewXU3(), "latency")
}

// FuzzLabelCodec feeds arbitrary payloads to the label decoder, as a memo
// disk entry from a shared cache directory would. Decoding never panics and
// never allocates more than the payload can back; a payload the cache would
// accept (no error, no bytes left over) re-encodes to the same bytes. Seeds
// live in testdata/fuzz/FuzzLabelCodec.
func FuzzLabelCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, so take the least of three decodes: the
		// fuzzing engine's own goroutines allocate now and then, the decoder
		// the same amount every time.
		var v any
		var err error
		var left int
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d := snap.NewDecoder(data)
			v, err = labelCodec{}.Decode(d)
			left = d.Remaining()
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(16*len(data)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil || left != 0 {
			return
		}
		var e snap.Encoder
		labelCodec{}.Encode(&e, v)
		if !bytes.Equal(e.Bytes(), data) {
			t.Fatalf("re-encoded labels differ: %d bytes from %d", len(e.Bytes()), len(data))
		}
	})
}
