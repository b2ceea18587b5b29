package il

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/oracle"
	"socrm/internal/snap"
	"socrm/internal/soc"
)

// trainedPolicy fits the neural policy on a short dataset.
func trainedPolicy(t testing.TB, snippets int) (Dataset, *MLPPolicy) {
	t.Helper()
	p := soc.NewXU3()
	ds := BuildDataset(p, oracle.New(p, oracle.Energy), shortApps(snippets))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, pol
}

func saveMLP(t testing.TB, pol *MLPPolicy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveMLPPolicy(&buf, pol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMLPPolicyRoundTrip(t *testing.T) {
	ds, pol := trainedPolicy(t, 10)
	file := saveMLP(t, pol)
	loaded, err := LoadPolicy(bytes.NewReader(file), pol.P)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if loaded.PredictConfig(ds.X[i]) != pol.PredictConfig(ds.X[i]) {
			t.Fatalf("loaded policy disagrees on sample %d", i)
		}
	}
	if !bytes.Equal(saveMLP(t, loaded), file) {
		t.Fatal("re-saving the loaded policy changed its bytes")
	}
}

// TestLoadRejectsWrongKind: a policy file of kind 2, the retired
// regression-tree kind, is refused by its kind byte alone.
func TestLoadRejectsWrongKind(t *testing.T) {
	_, pol := trainedPolicy(t, 8)
	file := saveMLP(t, pol)
	file[6] = 2
	if _, err := LoadPolicy(bytes.NewReader(file), pol.P); err == nil || !strings.Contains(err.Error(), "unknown policy kind 2") {
		t.Fatalf("an MLP file relabelled as kind 2: err = %v, want unknown policy kind 2", err)
	}
}

func TestLoadRejectsNilScaler(t *testing.T) {
	_, mlpPol := trainedPolicy(t, 8)
	p := mlpPol.P
	// The save side refuses to write a policy without a scaler.
	var sink bytes.Buffer
	if err := SaveMLPPolicy(&sink, &MLPPolicy{Net: mlpPol.Net, P: p}); err == nil {
		t.Fatal("SaveMLPPolicy with nil scaler must fail")
	}
	// The load side refuses a scaler of the wrong width; an empty one is the
	// identity and loads.
	short := &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	file := saveMLP(t, &MLPPolicy{Net: mlpPol.Net, Scaler: short, P: p})
	if _, err := LoadPolicy(bytes.NewReader(file), p); err == nil || !strings.Contains(err.Error(), "scaler") {
		t.Fatalf("1-entry scaler: err = %v, want scaler rejection", err)
	}
	file = saveMLP(t, &MLPPolicy{Net: mlpPol.Net, Scaler: &counters.Scaler{}, P: p})
	if _, err := LoadPolicy(bytes.NewReader(file), p); err != nil {
		t.Fatalf("empty scaler: %v", err)
	}
}

// TestDecodeRejectsBadShapes: every policy decoder — policy files and
// session imports both use it — refuses a policy whose first decision
// would panic, instead of handing it to a session.
func TestDecodeRejectsBadShapes(t *testing.T) {
	_, mlpPol := trainedPolicy(t, 8)
	p := mlpPol.P
	short := &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	encode := func(write func(*snap.Encoder)) []byte {
		var e snap.Encoder
		write(&e)
		return e.Bytes()
	}
	mlpCases := map[string]*MLPPolicy{
		"1-entry scaler":      {Net: mlpPol.Net, Scaler: short, P: p},
		"network sizes [2 1]": {Net: mlp.New(1, mlp.Tanh, 2, 1), Scaler: mlpPol.Scaler, P: p},
		"3 outputs":           {Net: mlp.New(1, mlp.Tanh, 13, 3), Scaler: mlpPol.Scaler, P: p},
	}
	for name, pol := range mlpCases {
		payload := encode(pol.EncodeTo)
		if _, err := DecodeMLPPolicy(snap.NewDecoder(payload), p); err == nil {
			t.Errorf("%s: DecodeMLPPolicy accepted it", name)
		}
		if _, err := LoadPolicy(bytes.NewReader(saveMLP(t, pol)), p); err == nil {
			t.Errorf("%s: LoadPolicy accepted it", name)
		}
	}
}

// TestLoadPolicyDispatchesOnKind: kind 1 is the one kind a policy file
// may carry; every other kind byte is refused by name.
func TestLoadPolicyDispatchesOnKind(t *testing.T) {
	_, mlpPol := trainedPolicy(t, 8)
	p := mlpPol.P
	if _, err := LoadPolicy(bytes.NewReader(saveMLP(t, mlpPol)), p); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []uint8{0, 9, 255} {
		file := saveMLP(t, mlpPol)
		file[6] = kind
		want := fmt.Sprintf("unknown policy kind %d", kind)
		if _, err := LoadPolicy(bytes.NewReader(file), p); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %d: err = %v, want %s", kind, err, want)
		}
	}
}

// TestConcurrentSaveLoad is the -race proof behind hot reload: many
// goroutines serialize the same shared policy while others deserialize and
// predict, exactly the contention a reloading daemon produces.
func TestConcurrentSaveLoad(t *testing.T) {
	ds, pol := trainedPolicy(t, 8)
	refBytes := saveMLP(t, pol)
	want := pol.PredictConfig(ds.X[0])

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if err := SaveMLPPolicy(&buf, pol); err != nil {
					t.Error(err)
					return
				}
				loaded, err := LoadPolicy(bytes.NewReader(refBytes), pol.P)
				if err != nil {
					t.Error(err)
					return
				}
				if got := loaded.PredictConfig(ds.X[0]); got != want {
					t.Errorf("loaded policy predicts %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, pol := trainedPolicy(t, 8)
	p := pol.P
	file := saveMLP(t, pol)
	// A JSON policy file, the retired format, is refused with an error that
	// names the binary one.
	for _, data := range []string{`{"version":1,"kind":"mlp","scaler":{}}`, "not a policy", ""} {
		_, err := LoadPolicy(strings.NewReader(data), p)
		if err == nil || !strings.Contains(err.Error(), "binary policy file") {
			t.Fatalf("%q: err = %v, want a binary-format rejection", data, err)
		}
	}
	badVersion := append([]byte(nil), file...)
	badVersion[4] = 1
	if _, err := LoadPolicy(bytes.NewReader(badVersion), p); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version 1: err = %v, want version rejection", err)
	}
	for n := 0; n < len(file); n++ {
		if _, err := LoadPolicy(bytes.NewReader(file[:n]), p); err == nil {
			t.Fatalf("file truncated to %d of %d bytes loaded", n, len(file))
		}
	}
	if _, err := LoadPolicy(bytes.NewReader(append(file, 0)), p); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v, want trailing-bytes rejection", err)
	}
}

// FuzzLoadPolicy: no input panics the loader or allocates more than a
// small multiple of its own size, and whatever loads re-saves to the same
// bytes and decides on a zero feature vector.
func FuzzLoadPolicy(f *testing.F) {
	p := soc.NewXU3()
	file := saveMLP(f, &MLPPolicy{Net: mlp.New(1, mlp.Tanh, control.NumFeatures, soc.NumConfigFeatures), Scaler: &counters.Scaler{}, P: p})
	f.Add(file)
	tree := append([]byte(nil), file...)
	tree[6] = 2 // the retired regression-tree kind
	f.Add(tree)
	zero := make([]float64, control.NumFeatures)
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, so take the least of three loads: the
		// fuzzing engine's own goroutines allocate now and then, the
		// decoder the same amount every time.
		var pol *MLPPolicy
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pol, err = LoadPolicy(bytes.NewReader(data), p)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(16*len(data)+4096) {
			t.Fatalf("loading %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		resaved := saveMLP(t, pol)
		if !bytes.Equal(resaved, data) {
			t.Fatalf("re-saved policy differs: %d bytes from %d", len(resaved), len(data))
		}
		pol.PredictConfig(zero)
	})
}
