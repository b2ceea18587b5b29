package mathx

import "math"

// Dot returns the inner product of x and y. The slices must have equal
// length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mathx: dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// AxpyInPlace computes y += a*x in place.
func AxpyInPlace(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mathx: axpy length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
