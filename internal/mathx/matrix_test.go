package mathx

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentityMul(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	i := Identity(3)
	for c := 0; c < 3; c++ {
		// Column c of A*I is A times column c of I, which is row c of I.
		col := a.MulVecInto(make([]float64, 3), i.Row(c))
		for r := 0; r < 3; r++ {
			if col[r] != a.At(r, c) {
				t.Fatalf("A*I != A at (%d,%d)", r, c)
			}
		}
	}
}

func TestScale(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	if s := a.Scale(2).At(1, 0); s != 6 {
		t.Fatalf("scale = %v, want 6", s)
	}
}
