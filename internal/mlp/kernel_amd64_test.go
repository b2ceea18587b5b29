//go:build !purego

package mlp

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestGoKernelPath runs the exactness tests once more on the Go loops,
// which are the whole kernel under purego, on other architectures and on
// CPUs without AVX2.
func TestGoKernelPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the Go loops are the kernel the other tests ran")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	t.Run("TrainingGoldenDigest", TestTrainingGoldenDigest)
	t.Run("KernelMatchesReference", TestKernelMatchesReference)
	t.Run("StuckMomentumSkipExact", TestStuckMomentumSkipExact)
}

// edgeF64 draws from the values the kernels must treat exactly like the Go
// loops: ±0, subnormals of 1, k, k+1 and 1..k ulps, |w| on both sides of 2^-1000,
// ±Inf, both NaN payloads the arithmetic produces, a signalling NaN (which
// an add quiets, so a skipped update must not touch it) and ordinary
// values.
func edgeF64(rng *rand.Rand, k uint64) float64 {
	var v float64
	switch rng.Intn(13) {
	case 0:
		v = 0
	case 1:
		v = math.Float64frombits([]uint64{1, k, 1 + uint64(rng.Int63n(int64(k)+1))}[rng.Intn(3)])
	case 2:
		v = math.Float64frombits(k + 1)
	case 3:
		v = 0x1p-1000
	case 4:
		v = math.Nextafter(0x1p-1000, 0)
	case 5:
		v = math.Inf(1)
	case 6:
		v = math.NaN()
	case 7:
		v = math.Float64frombits(0xfff8000000000000) // the default NaN x86 produces
	case 8:
		v = math.Float64frombits(0x7ff0000000000001)
	default:
		v = rng.NormFloat64()
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestAVX2MatchesGo compares the vector kernels with the Go loops bit for
// bit on every width of one vector, several vectors and a remainder
// (1, 3, 4, 5, 7, 8, 13, 16, 24) and on row counts that are not multiples
// of 4, over edge values in every operand.
func TestAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	net := New(1, Tanh, 1, 1)
	lrs := []float64{0.02, 0.5, 0, math.NaN(), math.Inf(1)}
	// Momentum 1 has k = 2^20, where |w| >= 2^-1000 is the tight bound.
	moms := []float64{0.9, 1, 0.51, 1.49, 0.5, 0, math.NaN()}
	ks := make([][]uint64, len(moms))
	for i, mom := range moms {
		for _, lr := range lrs {
			ks[i] = append(ks[i], net.stuckUlps(mom, lr))
		}
	}
	fill := func(n int, k uint64, zeroShare int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if v[i] = edgeF64(rng, k); zeroShare > 0 && rng.Intn(zeroShare) == 0 {
				v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
		return v
	}
	for _, in := range []int{1, 3, 4, 5, 7, 8, 13, 16, 24} {
		for _, rows := range []int{1, 2, 3, 5, 7, 24} {
			for c := 0; c < 40; c++ {
				mi, li := rng.Intn(len(moms)), rng.Intn(len(lrs))
				lr, mom, k := lrs[li], moms[mi], ks[mi][li]
				x := fill(in, k, 2)
				delta := make([]float64, rows)
				for j := range delta {
					delta[j] = rng.NormFloat64()
					if rng.Intn(10) == 0 {
						delta[j] = edgeF64(rng, k)
					}
				}
				W, M, nd := fill(rows*in, k, 0), fill(rows*in, k, 0), fill(in, k, 0)

				// The input layer: the skip as TrainStep calls it, and plain.
				for _, kk := range []uint64{k, 0} {
					w1, m1 := append([]float64(nil), W...), append([]float64(nil), M...)
					w2, m2 := append([]float64(nil), W...), append([]float64(nil), M...)
					updateInputLayer(x, delta, w1, m1, lr, mom, kk)
					updateInputLayerGo(x, delta, w2, m2, lr, mom, kk)
					if i, ok := sameBits(w1, w2, m1, m2); !ok {
						t.Fatalf("updateInputLayer in=%d rows=%d lr=%v momentum=%v k=%d: element %d differs from the Go loop (w %x vs %x, m %x vs %x)",
							in, rows, lr, mom, kk, i, math.Float64bits(w1[i]), math.Float64bits(w2[i]), math.Float64bits(m1[i]), math.Float64bits(m2[i]))
					}
				}

				w1, m1, d1 := append([]float64(nil), W...), append([]float64(nil), M...), append([]float64(nil), nd...)
				w2, m2, d2 := append([]float64(nil), W...), append([]float64(nil), M...), append([]float64(nil), nd...)
				backpropLayer(d1, x, delta, w1, m1, lr, mom)
				backpropLayerGo(d2, x, delta, w2, m2, lr, mom)
				if i, ok := sameBits(w1, w2, m1, m2); !ok {
					t.Fatalf("backpropLayer in=%d rows=%d lr=%v momentum=%v: weight %d differs from the Go loop", in, rows, lr, mom, i)
				}
				if i, ok := sameBits(d1, d2); !ok {
					t.Fatalf("backpropLayer in=%d rows=%d lr=%v momentum=%v: nextDelta[%d] %x, Go loop %x",
						in, rows, lr, mom, i, math.Float64bits(d1[i]), math.Float64bits(d2[i]))
				}
			}
		}
	}
}

// sameBits compares pairs of slices (a0, b0, a1, b1, ...) bit for bit and
// returns the first differing index. Under -race two NaNs count as equal
// whatever their payloads: race instrumentation changes the registers the
// compiler gives the Go loops, and with them which operand of an add or a
// multiply comes first, which decides the payload when both are NaN. The
// kernel follows the operand order of the default build.
func sameBits(pairs ...[]float64) (int, bool) {
	for p := 0; p+1 < len(pairs); p += 2 {
		for i, a := range pairs[p] {
			b := pairs[p+1][i]
			if math.Float64bits(a) != math.Float64bits(b) && !(raceBuild && a != a && b != b) {
				return i, false
			}
		}
	}
	return 0, true
}

// raceBuild reports whether the test binary was built with -race.
var raceBuild = func() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}()

// TestKernelShapeChecked checks that a weight slice too short for its
// rows panics in Go before the vector kernel could read past it.
func TestKernelShapeChecked(t *testing.T) {
	x, delta := make([]float64, 5), make([]float64, 3)
	for name, call := range map[string]func(){
		"backpropLayer": func() {
			backpropLayer(make([]float64, 5), x, delta, make([]float64, 14), make([]float64, 15), 0.1, 0.9)
		},
		"updateInputLayer": func() {
			updateInputLayer(x, delta, make([]float64, 15), make([]float64, 14), 0.1, 0.9, 5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short weight slice did not panic", name)
				}
			}()
			call()
		}()
	}
}
