package mlp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// goldenTrainingDigest pins the training kernel bit for bit. It was
// recorded on the straightforward per-element kernel (one row at a time,
// one weight at a time); any rewrite of forward/TrainStep must keep every
// element's floating-point operations, and so this digest, unchanged.
const goldenTrainingDigest = "05c6bfdbeffe3861b2c79f97512da936215b95ca4ed5b65612a59c4ab38fbd17"

func hashF64s(h hash.Hash, vs ...[]float64) {
	var b [8]byte
	for _, v := range vs {
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
}

// trainingCase builds a network and a dataset whose zeroCols input columns
// are exactly zero, with layer 0's momentum on those columns seeded to
// ±1..±5 ulps (the subnormal fixed points a served policy settles into).
func trainingCase(sizes []int, act Activation, seed int64, zeroCols ...int) (*Network, [][]float64, [][]float64) {
	n := New(seed, act, sizes...)
	rng := rand.New(rand.NewSource(seed + 100))
	in, out := sizes[0], sizes[len(sizes)-1]
	xs := make([][]float64, 8)
	ys := make([][]float64, len(xs))
	for s := range xs {
		xs[s] = make([]float64, in)
		for i := range xs[s] {
			xs[s][i] = rng.NormFloat64()
		}
		for _, c := range zeroCols {
			xs[s][c] = 0
		}
		ys[s] = make([]float64, out)
		for j := range ys[s] {
			ys[s][j] = rng.Float64()
		}
	}
	for j := 0; j < sizes[1]; j++ {
		for k, c := range zeroCols {
			m := math.Float64frombits(uint64(1 + (j+k)%5))
			if (j+k)%2 == 1 {
				m = -m
			}
			n.mW[0][j*in+c] = m
		}
	}
	return n, xs, ys
}

func TestTrainingGoldenDigest(t *testing.T) {
	shapes := []struct {
		sizes    []int
		zeroCols []int
	}{
		{[]int{13, 24, 16, 4}, []int{8, 10}},
		{[]int{7, 5, 3}, []int{0, 4}},
	}
	h := sha256.New()
	for _, sh := range shapes {
		for _, act := range []Activation{Tanh, ReLU} {
			for _, mom := range []float64{0, 0.5, 0.51, 0.9, 1.49, 1.5} {
				n, xs, ys := trainingCase(sh.sizes, act, int64(len(sh.sizes))*10+int64(act), sh.zeroCols...)
				var losses []float64
				for r := 0; r < 6; r++ {
					losses = append(losses, n.TrainEpochs(xs, ys, 20, 0.02, mom, int64(r)))
				}
				for s := range xs {
					losses = append(losses, n.TrainStep(xs[s], ys[s], 0.05, mom))
				}
				hashF64s(h, losses)
				for l := range n.W {
					hashF64s(h, n.W[l], n.B[l], n.mW[l], n.mB[l])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrainingDigest {
		t.Fatalf("training digest %s, want %s: the kernel changed some element's floating-point result", got, goldenTrainingDigest)
	}
}

func TestStuckUlps(t *testing.T) {
	n := New(1, Tanh, 2, 1)
	for _, c := range []struct {
		momentum, lr float64
		want         uint64
	}{
		{0.9, 0.02, 5}, {0.51, 0.02, 1}, {1.49, 0.02, 1}, {0.5, 0.02, 0},
		{1.5, 0.02, 0}, {0, 0.02, 0}, {1, 0.02, 1 << 20}, {math.NaN(), 0.02, 0},
		{0.9, math.NaN(), 0}, {0.9, math.Inf(1), 0}, {0.9, math.Inf(-1), 0},
	} {
		if got := n.stuckUlps(c.momentum, c.lr); got != c.want {
			t.Errorf("stuckUlps(%v, %v) = %d, want %d", c.momentum, c.lr, got, c.want)
		}
	}
}

// TestStuckMomentumSkipExact checks one TrainStep of a single-layer
// network against the plain update formula, bit for bit, on the edges of
// the stuck-momentum skip: momentum at 1..K and K+1 ulps of either sign on
// a zero and a nonzero input, |w| on both sides of 2^-1000, d = ±Inf or
// NaN (via the target) and lr = NaN. Momentum 1 has K = 2^20, where
// 2^-1000 is the tight bound: at the next float below it, w + m rounds
// away from w.
func TestStuckMomentumSkipExact(t *testing.T) {
	below := math.Nextafter(0x1p-1000, 0)
	tiny := math.Float64frombits(3) // 3 ulps: w + m moves it
	ws := []float64{0x1p-1000, -0x1p-1000, below, -below, 0x1p-1021, tiny, -tiny, 0, 0.75, math.Inf(1)}
	targets := []float64{0.3, math.Inf(1), math.Inf(-1), math.NaN()}
	x := []float64{0, 0.25}
	for _, c := range []struct {
		momentum float64
		ks       []uint64 // K and K+1 are the last two
	}{
		{0.9, []uint64{1, 2, 3, 4, 5, 6}},
		{1, []uint64{1, 1 << 20, 1<<20 + 1}},
	} {
		n := New(1, Tanh, 2, 1)
		for _, lr := range []float64{0.02, math.NaN()} {
			for _, k := range c.ks {
				for _, m0 := range []float64{math.Float64frombits(k), -math.Float64frombits(k)} {
					for _, w0 := range ws {
						for _, target := range targets {
							n.W[0][0], n.W[0][1], n.B[0][0] = w0, 0.5, 0.1
							n.mW[0][0], n.mW[0][1], n.mB[0][0] = m0, m0, -1e-3 // only input 0 is 0

							// The plain formula, one element at a time.
							out := n.B[0][0]
							for i := range x {
								out += n.W[0][i] * x[i]
							}
							d := out - target
							var wantW, wantM [2]float64
							for i := range x {
								wantM[i] = c.momentum*n.mW[0][i] - lr*(d*x[i])
								wantW[i] = n.W[0][i] + wantM[i]
							}
							wantMB := c.momentum*n.mB[0][0] - lr*d
							wantB := n.B[0][0] + wantMB

							n.TrainStep(x, []float64{target}, lr, c.momentum)
							for i := range x {
								if math.Float64bits(n.W[0][i]) != math.Float64bits(wantW[i]) ||
									math.Float64bits(n.mW[0][i]) != math.Float64bits(wantM[i]) {
									t.Fatalf("momentum=%v k=%d m=%g w=%g target=%v lr=%v: weight %d got (w %g, m %g), want (w %g, m %g)",
										c.momentum, k, m0, w0, target, lr, i, n.W[0][i], n.mW[0][i], wantW[i], wantM[i])
								}
							}
							if math.Float64bits(n.B[0][0]) != math.Float64bits(wantB) ||
								math.Float64bits(n.mB[0][0]) != math.Float64bits(wantMB) {
								t.Fatalf("momentum=%v k=%d m=%g w=%g target=%v lr=%v: bias got (%g, %g), want (%g, %g)",
									c.momentum, k, m0, w0, target, lr, n.B[0][0], n.mB[0][0], wantB, wantMB)
							}
						}
					}
				}
			}
		}
	}
}
