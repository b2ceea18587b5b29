package experiments

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestRunJobsOrdering: MapJobs keys results by input index, not arrival
// order, for every worker count.
func TestRunJobsOrdering(t *testing.T) {
	inputs := make([]int, 100)
	for i := range inputs {
		inputs[i] = i * 3
	}
	want := make([]int, len(inputs))
	for i, v := range inputs {
		want[i] = v + 1
	}
	for _, workers := range []int{0, 1, 2, 7, 64, 1000} {
		got := MapJobs(workers, inputs, func(_ int, in int) int {
			runtime.Gosched() // shake completion order
			return in + 1
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results out of input order", workers)
		}
	}
}

// TestRunJobsEmpty: MapJobs over zero jobs is a no-op for any worker
// count.
func TestRunJobsEmpty(t *testing.T) {
	out := MapJobs(8, []int(nil), func(int, int) int {
		t.Fatal("fn called with no inputs")
		return 0
	})
	if len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

// TestRunJobsPerJobSeeds is the seeded-RNG plumbing contract, run under
// -race in CI: every job derives its own *rand.Rand from a per-job seed,
// so a parallel run is race-free and bit-identical to the serial one. A
// single shared rand.Rand would both race and scramble the draws.
func TestRunJobsPerJobSeeds(t *testing.T) {
	const base = int64(42)
	draw := func(i int, _ int) []float64 {
		rng := rand.New(rand.NewSource(base + int64(i)))
		out := make([]float64, 16)
		for k := range out {
			out[k] = rng.NormFloat64()
		}
		return out
	}
	inputs := make([]int, 32)
	serial := MapJobs(1, inputs, draw)
	parallel := MapJobs(8, inputs, draw)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("per-job seeded draws differ between serial and parallel runs")
	}
}

func TestMapJobs(t *testing.T) {
	got := MapJobs(3, []string{"a", "bb", "ccc"}, func(i int, s string) int {
		return i + len(s)
	})
	if !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestNormWorkers(t *testing.T) {
	if got := normWorkers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers=0 resolved to %d, want GOMAXPROCS", got)
	}
	if got := normWorkers(8, 3); got != 3 {
		t.Fatalf("more workers than jobs: got %d, want 3", got)
	}
	if got := normWorkers(-5, 0); got != 1 {
		t.Fatalf("degenerate request: got %d, want 1", got)
	}
}
