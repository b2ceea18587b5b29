package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// The engine's core promise: a parallel experiment run is bit-identical
// to the fully serial one. These tests build the same reduced study with
// workers=1 and with a saturated pool and compare every output
// structurally (float64 fields included — the computations are identical
// per job, only the scheduling differs, so even floating point must
// match exactly).

func buildStudy(t *testing.T, workers int) *Study {
	t.Helper()
	s, err := NewStudy(Options{Seed: 42, MaxSnippets: 6, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyDeterminismAcrossWorkers(t *testing.T) {
	serial := buildStudy(t, 1)
	parallel := buildStudy(t, 8)

	for _, app := range serial.allApps() {
		if !reflect.DeepEqual(serial.Labels(app.Name), parallel.Labels(app.Name)) {
			t.Fatalf("%s: Oracle labels differ between workers=1 and workers=8", app.Name)
		}
	}
	if !reflect.DeepEqual(serial.dataset, parallel.dataset) {
		t.Fatal("offline IL dataset differs between worker counts")
	}

	if got, want := parallel.Table2(), serial.Table2(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Table2 differs:\nserial   %v\nparallel %v", want, got)
	}
	if got, want := parallel.Fig3(), serial.Fig3(); !reflect.DeepEqual(got, want) {
		t.Fatal("Fig3 differs between worker counts")
	}
	if got, want := parallel.Fig4(), serial.Fig4(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig4 differs:\nserial   %v\nparallel %v", want, got)
	}
	if got, want := parallel.BufferSizeAblation([]int{4, 16}), serial.BufferSizeAblation([]int{4, 16}); !reflect.DeepEqual(got, want) {
		t.Fatal("BufferSizeAblation differs between worker counts")
	}
}

// TestGoldenFigureDigests extends the determinism guarantee across PRs, not
// just worker counts: these digests were captured from the reduced study
// BEFORE the PR-3 zero-allocation hot-path refactor, so any change to the
// decision path that is not bit-identical (candidate order, memoized CPI,
// scratch-buffer arithmetic) fails here. Floating point is deterministic on
// amd64 (no operation fusing); other architectures may legally fuse
// multiply-adds, so the comparison is gated to the architecture the goldens
// were recorded on.
func TestGoldenFigureDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests recorded on amd64; GOARCH=%s may fuse floating-point ops", runtime.GOARCH)
	}
	s := buildStudy(t, 1)
	digest := func(v interface{}) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
	}
	want := map[string]struct {
		got  string
		want string
	}{
		"Table2": {digest(s.Table2()), "8bccffc0f9c1ac63664878a2120984783d36579d8ed1416385ac393ca389a1c7"},
		"Fig3":   {digest(s.Fig3()), "36d2953c195da1db6a971616be6d7da22af08f2494605c854efac2e941332a2e"},
		"Fig4":   {digest(s.Fig4()), "2bb87a3928be17955692374b46a8aead22dd9bc17756425c5ecd6d227b4bad92"},
	}
	for name, d := range want {
		if d.got != d.want {
			t.Errorf("%s digest drifted from the pre-refactor golden:\n got  %s\n want %s", name, d.got, d.want)
		}
	}
}

func TestFig5DeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) Fig5Result {
		opt := DefaultFig5Options()
		opt.Workers = workers
		res, err := Fig5(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Fig5 differs between workers=1 and workers=8")
	}
}

func TestAblationDeterminismAcrossWorkers(t *testing.T) {
	if s, p := ForgettingAblation(42, 1), ForgettingAblation(42, 8); !reflect.DeepEqual(s, p) {
		t.Fatal("ForgettingAblation differs between worker counts")
	}
	s, err := CadenceAblation(42, []int{10, 60}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CadenceAblation(42, []int{10, 60}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, p) {
		t.Fatal("CadenceAblation differs between worker counts")
	}
}

// TestGoldenFrameTimeDigests pins the STAFF/RLS frame-time pipeline the
// same way TestGoldenFigureDigests pins the decision path: these digests
// were captured BEFORE the PR-5 zero-allocation sweep (persistent STAFF
// masked/reselect scratch, predictor-resident feature buffer, in-place
// covariance Reset, inlined seedFor hash), so any change to that path
// that is not bit-identical fails here.
func TestGoldenFrameTimeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests recorded on amd64; GOARCH=%s may fuse floating-point ops", runtime.GOARCH)
	}
	digest := func(v interface{}) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
	}
	want := map[string]struct {
		got  string
		want string
	}{
		"Fig2":       {digest(Fig2(42)), "644690ce3b2807aff52a78ee95b3987421457618d9faa7e169c16f797df43c15"},
		"Forgetting": {digest(ForgettingAblation(42, 1)), "9b4c3b184c880282ce47f811341d704bd1411cfd0e1c7f0aba7febab1a3a518c"},
	}
	for name, d := range want {
		if d.got != d.want {
			t.Errorf("%s digest drifted from the pre-refactor golden:\n got  %s\n want %s", name, d.got, d.want)
		}
	}
}
