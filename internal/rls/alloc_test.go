//go:build !race

package rls

import "testing"

// RLS.Update runs once per observed snippet in every online model; the
// hot-path budget is zero steady-state allocations (ISSUE 3). The warm-up
// call of AllocsPerRun absorbs the lazy px/g scratch sizing. Gated to
// non-race builds: the race runtime instruments allocation.

func TestUpdateAllocFree(t *testing.T) {
	r := New(10, 0.98, 100)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	if avg := testing.AllocsPerRun(500, func() { r.Update(x, 1.0) }); avg != 0 {
		t.Fatalf("Update allocates %.1f objects per call, want 0", avg)
	}
}

func TestPredictAllocFree(t *testing.T) {
	r := New(10, 0.98, 100)
	x := make([]float64, 10)
	if avg := testing.AllocsPerRun(500, func() { r.Predict(x) }); avg != 0 {
		t.Fatalf("Predict allocates %.1f objects per call, want 0", avg)
	}
}

// STAFF adds masking, adaptive forgetting, trace stabilization (an in-place
// covariance Reset) and periodic feature reselection on top of RLS; all of
// it must stay inside the persistent scratch. The iteration count crosses
// several SelectEvery boundaries so the reselect path is covered.

func TestSTAFFUpdateAllocFree(t *testing.T) {
	s := NewSTAFF(8, 100)
	s.MaxTrace = 200 // low bound so the stabilization Reset path runs too
	x := make([]float64, 8)
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		for j := range x {
			x[j] = float64((i+j)%7) * 0.3
		}
		i++
		s.Update(x, float64(i%5))
	}); avg != 0 {
		t.Fatalf("STAFF.Update allocates %.1f objects per call, want 0", avg)
	}
	if s.rls.Samples() < 500 {
		t.Fatalf("updates did not run: %d samples", s.rls.Samples())
	}
}

func TestSTAFFPredictAllocFree(t *testing.T) {
	s := NewSTAFF(8, 100)
	x := make([]float64, 8)
	for j := range x {
		x[j] = float64(j) * 0.1
		s.Update(x, 1)
	}
	if avg := testing.AllocsPerRun(500, func() { s.Predict(x) }); avg != 0 {
		t.Fatalf("STAFF.Predict allocates %.1f objects per call, want 0", avg)
	}
}
