package rls

import (
	"math"
	"math/rand"
	"testing"
)

func TestSTAFFConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSTAFF(3, 100)
	s.KeepFraction = 1 // every feature is informative here
	truth := []float64{1.5, -0.7, 2.0}
	var e float64
	for i := 0; i < 600; i++ {
		x := []float64{1, rng.NormFloat64(), rng.NormFloat64()}
		y := truth[0] + truth[1]*x[1] + truth[2]*x[2]
		e = s.Update(x, y)
	}
	if math.Abs(e) > 1e-3 {
		t.Fatalf("final error %v too large", e)
	}
}

func TestSTAFFLambdaAdapts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewSTAFF(2, 100)
	// Steady regime: lambda should drift to its maximum.
	for i := 0; i < 300; i++ {
		x := []float64{1, rng.NormFloat64()}
		s.Update(x, 2+0.5*x[1])
	}
	steady := s.rls.Lambda
	if steady < 0.99 {
		t.Fatalf("steady-state lambda %v should approach LambdaMax", steady)
	}
	// Abrupt change: lambda must drop to re-learn.
	dropped := false
	for i := 0; i < 40; i++ {
		x := []float64{1, rng.NormFloat64()}
		s.Update(x, 20-3*x[1])
		if s.rls.Lambda < steady-0.01 {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("lambda did not drop on workload change")
	}
}

func TestSTAFFFeatureSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSTAFF(8, 100)
	s.KeepFraction = 0.5
	// Only features 0 and 1 matter.
	for i := 0; i < 400; i++ {
		x := make([]float64, 8)
		x[0] = 1
		for j := 1; j < 8; j++ {
			x[j] = rng.NormFloat64() * 0.01 // tiny useless features
		}
		x[1] = rng.NormFloat64()
		s.Update(x, 3*x[0]+2*x[1])
	}
	if !s.Mask[0] || !s.Mask[1] {
		t.Fatalf("informative features masked out: %v", s.Mask)
	}
	got := 0
	for _, m := range s.Mask {
		if m {
			got++
		}
	}
	if got > 4 {
		t.Fatalf("active features = %d, want <= 4 with KeepFraction 0.5", got)
	}
}

func TestSTAFFTraceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewSTAFF(3, 1e3)
	s.MaxTrace = 500
	// Degenerate excitation (constant feature) inflates the covariance in
	// plain RLS with forgetting; STAFF must keep it bounded.
	for i := 0; i < 2000; i++ {
		x := []float64{1, 0.001 * rng.NormFloat64(), 0}
		s.Update(x, 2.0)
		if tr := s.rls.TraceP(); tr > 4*s.MaxTrace {
			t.Fatalf("covariance trace %v escaped the stabilization bound", tr)
		}
	}
}

func TestSTAFFPredictUsesMask(t *testing.T) {
	s := NewSTAFF(2, 10)
	s.rls.W[0], s.rls.W[1] = 1, 1
	s.Mask[1] = false
	if got := s.Predict([]float64{3, 5}); got != 3 {
		t.Fatalf("masked prediction = %v, want 3", got)
	}
}
