package svr

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, 2*x[0]-x[1]+0.5)
	}
	p := DefaultParams()
	p.Epochs = 200
	m, err := Fit(xs, ys, p)
	if err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i, x := range xs {
		mae += math.Abs(m.Predict(x) - ys[i])
	}
	mae /= float64(len(xs))
	if mae > 0.05 {
		t.Fatalf("MAE %v too large", mae)
	}
}

func TestEpsilonInsensitivity(t *testing.T) {
	// Noise inside the tube should not prevent recovering the trend.
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 2
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+0.02*rng.NormFloat64())
	}
	p := DefaultParams()
	p.Epsilon = 0.05
	p.Epochs = 150
	m, err := Fit(xs, ys, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.W[0]-3) > 0.15 {
		t.Fatalf("slope %v, want ~3", m.W[0])
	}
	if frac := supportFraction(m, xs, ys, 0.2); frac > 0.2 {
		t.Fatalf("support fraction %v too high for in-tube noise", frac)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultParams()); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("expected error on mismatch")
	}
}

func TestDeterministic(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{0, 1, 2, 3}
	a, _ := Fit(xs, ys, DefaultParams())
	b, _ := Fit(xs, ys, DefaultParams())
	if a.W[0] != b.W[0] || a.Bias != b.Bias {
		t.Fatal("training not deterministic")
	}
}

// supportFraction reports the fraction of training samples outside the
// epsilon tube of the fitted model, the analogue of the support-vector count.
func supportFraction(m *Model, xs [][]float64, ys []float64, eps float64) float64 {
	n := 0
	for i, x := range xs {
		r := m.Predict(x) - ys[i]
		if r > eps || r < -eps {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
