package il

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/oracle"
	"socrm/internal/regtree"
	"socrm/internal/snap"
	"socrm/internal/soc"
)

// trainedPolicies fits one policy of each kind on a short dataset.
func trainedPolicies(t testing.TB, snippets int) (Dataset, *MLPPolicy, *TreePolicy) {
	t.Helper()
	p := soc.NewXU3()
	ds := BuildDataset(p, oracle.New(p, oracle.Energy), shortApps(snippets))
	mlpPol, err := TrainMLPPolicy(p, ds, DefaultMLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	treePol, err := TrainTreePolicy(p, ds, regtree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return ds, mlpPol, treePol
}

func saveMLP(t testing.TB, pol *MLPPolicy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveMLPPolicy(&buf, pol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func saveTree(t testing.TB, pol *TreePolicy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveTreePolicy(&buf, pol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMLPPolicyRoundTrip(t *testing.T) {
	ds, pol, _ := trainedPolicies(t, 10)
	file := saveMLP(t, pol)
	got, err := LoadPolicy(bytes.NewReader(file), pol.P)
	if err != nil {
		t.Fatal(err)
	}
	loaded := got.(*MLPPolicy)
	for i := range ds.X {
		if loaded.PredictConfig(ds.X[i]) != pol.PredictConfig(ds.X[i]) {
			t.Fatalf("loaded policy disagrees on sample %d", i)
		}
	}
	if !bytes.Equal(saveMLP(t, loaded), file) {
		t.Fatal("re-saving the loaded policy changed its bytes")
	}
}

func TestTreePolicyRoundTrip(t *testing.T) {
	ds, _, pol := trainedPolicies(t, 10)
	file := saveTree(t, pol)
	got, err := LoadPolicy(bytes.NewReader(file), pol.P)
	if err != nil {
		t.Fatal(err)
	}
	loaded := got.(*TreePolicy)
	for i := range ds.X {
		if loaded.PredictConfig(ds.X[i]) != pol.PredictConfig(ds.X[i]) {
			t.Fatalf("loaded tree policy disagrees on sample %d", i)
		}
	}
	if !bytes.Equal(saveTree(t, loaded), file) {
		t.Fatal("re-saving the loaded tree policy changed its bytes")
	}
}

// TestLoadRejectsWrongKind: a kind byte that does not match its payload is
// refused by the payload's own decoder, in both directions.
func TestLoadRejectsWrongKind(t *testing.T) {
	_, mlpPol, treePol := trainedPolicies(t, 8)
	p := mlpPol.P
	for _, tc := range []struct {
		file []byte
		kind uint8
	}{
		{saveMLP(t, mlpPol), policyTree},
		{saveTree(t, treePol), policyMLP},
	} {
		tc.file[6] = tc.kind
		if _, err := LoadPolicy(bytes.NewReader(tc.file), p); err == nil {
			t.Fatalf("a file relabelled as kind %d loaded", tc.kind)
		}
	}
}

func TestLoadRejectsNilScaler(t *testing.T) {
	_, mlpPol, treePol := trainedPolicies(t, 8)
	p := mlpPol.P
	// The save side refuses to write a policy without a scaler.
	var sink bytes.Buffer
	if err := SaveMLPPolicy(&sink, &MLPPolicy{Net: mlpPol.Net, P: p}); err == nil {
		t.Fatal("SaveMLPPolicy with nil scaler must fail")
	}
	if err := SaveTreePolicy(&sink, &TreePolicy{Forest: treePol.Forest, P: p}); err == nil {
		t.Fatal("SaveTreePolicy with nil scaler must fail")
	}
	// The load side refuses a scaler of the wrong width; an empty one is the
	// identity and loads.
	short := &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	for _, file := range [][]byte{
		saveMLP(t, &MLPPolicy{Net: mlpPol.Net, Scaler: short, P: p}),
		saveTree(t, &TreePolicy{Forest: treePol.Forest, Scaler: short, P: p}),
	} {
		if _, err := LoadPolicy(bytes.NewReader(file), p); err == nil || !strings.Contains(err.Error(), "scaler") {
			t.Fatalf("1-entry scaler: err = %v, want scaler rejection", err)
		}
	}
	file := saveMLP(t, &MLPPolicy{Net: mlpPol.Net, Scaler: &counters.Scaler{}, P: p})
	if _, err := LoadPolicy(bytes.NewReader(file), p); err != nil {
		t.Fatalf("empty scaler: %v", err)
	}
}

// TestDecodeRejectsBadShapes: every policy decoder — policy files, session
// imports and the experiment cache all use it — refuses a policy whose
// first decision would panic, instead of handing it to a session.
func TestDecodeRejectsBadShapes(t *testing.T) {
	_, mlpPol, treePol := trainedPolicies(t, 8)
	p := mlpPol.P
	short := &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	leaf := func() *regtree.Tree {
		tr, err := regtree.Fit([][]float64{{0}}, []float64{0.5}, regtree.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// A split on feature 99 of 13.
	wide := make([][]float64, 8)
	ys := make([]float64, len(wide))
	for i := range wide {
		wide[i] = make([]float64, 100)
		wide[i][99] = float64(i)
		ys[i] = float64(i % 2)
	}
	farSplit, err := regtree.Fit(wide, ys, regtree.Params{MaxDepth: 2, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	treeCases := map[string]*TreePolicy{
		"1-entry scaler": {Forest: treePol.Forest, Scaler: short, P: p},
		"3 trees":        {Forest: &regtree.Forest{Trees: treePol.Forest.Trees[:3]}, Scaler: treePol.Scaler, P: p},
		"split on feature 99": {Forest: &regtree.Forest{Trees: []*regtree.Tree{leaf(), leaf(), leaf(), farSplit}},
			Scaler: treePol.Scaler, P: p},
	}
	for name, pol := range treeCases {
		payload := encode(pol.EncodeTo)
		if _, err := DecodeTreePolicy(snap.NewDecoder(payload), p); err == nil {
			t.Errorf("%s: DecodeTreePolicy accepted it", name)
		}
		if _, err := LoadPolicy(bytes.NewReader(saveTree(t, pol)), p); err == nil {
			t.Errorf("%s: LoadPolicy accepted it", name)
		}
	}
}

func TestLoadPolicyDispatchesOnKind(t *testing.T) {
	_, mlpPol, treePol := trainedPolicies(t, 8)
	p := mlpPol.P
	pol, err := LoadPolicy(bytes.NewReader(saveMLP(t, mlpPol)), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, isMLP := pol.(*MLPPolicy); !isMLP {
		t.Fatalf("LoadPolicy returned %T, want *MLPPolicy", pol)
	}
	pol, err = LoadPolicy(bytes.NewReader(saveTree(t, treePol)), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, isTree := pol.(*TreePolicy); !isTree {
		t.Fatalf("LoadPolicy returned %T, want *TreePolicy", pol)
	}
	file := saveTree(t, treePol)
	file[6] = 9
	if _, err := LoadPolicy(bytes.NewReader(file), p); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("unknown kind: err = %v, want kind rejection", err)
	}
}

// TestConcurrentSaveLoad is the -race proof behind hot reload: many
// goroutines serialize the same shared policy while others deserialize and
// predict, exactly the contention a reloading daemon produces.
func TestConcurrentSaveLoad(t *testing.T) {
	ds, pol, _ := trainedPolicies(t, 8)
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
	_, pol, _ := trainedPolicies(t, 8)
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
	leaves := &regtree.Forest{}
	for range soc.NumConfigFeatures {
		tr, err := regtree.Fit([][]float64{{0}}, []float64{0.5}, regtree.DefaultParams())
		if err != nil {
			f.Fatal(err)
		}
		leaves.Trees = append(leaves.Trees, tr)
	}
	f.Add(saveMLP(f, &MLPPolicy{Net: mlp.New(1, mlp.Tanh, control.NumFeatures, soc.NumConfigFeatures), Scaler: &counters.Scaler{}, P: p}))
	f.Add(saveTree(f, &TreePolicy{Forest: leaves, Scaler: &counters.Scaler{}, P: p}))
	zero := make([]float64, control.NumFeatures)
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, so take the least of three loads: the
		// fuzzing engine's own goroutines allocate now and then, the
		// decoder the same amount every time.
		var pol Policy
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
		var resaved []byte
		switch pol := pol.(type) {
		case *MLPPolicy:
			resaved = saveMLP(t, pol)
		case *TreePolicy:
			resaved = saveTree(t, pol)
		}
		if !bytes.Equal(resaved, data) {
			t.Fatalf("re-saved policy differs: %d bytes from %d", len(resaved), len(data))
		}
		pol.PredictConfig(zero)
	})
}
