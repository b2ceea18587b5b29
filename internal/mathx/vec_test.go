package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	AxpyInPlace(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy = %v", y)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(x); v != 4 {
		t.Fatalf("variance = %v", v)
	}
	if s := Std(x); s != 2 {
		t.Fatalf("std = %v", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("clamp wrong")
	}
}

func TestVecOpsProperties(t *testing.T) {
	// Dot is linear in an AxpyInPlace update: Dot(y+2x, z) == Dot(y, z) + 2*Dot(x, z).
	f := func(a0, b0, c0 float64) bool {
		// Bound magnitudes so products stay finite.
		a, b, c := math.Mod(a0, 1e3), math.Mod(b0, 1e3), math.Mod(c0, 1e3)
		x := []float64{a, b, c}
		y := []float64{c, a, b}
		z := []float64{b, c, a}
		want := Dot(y, z) + 2*Dot(x, z)
		AxpyInPlace(2, x, y)
		return almostEq(Dot(y, z), want, 1e-6*(1+math.Abs(want)))
	}
	cfg := &quick.Config{MaxCount: 100, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
