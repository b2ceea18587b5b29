package mlp

import (
	"math"
	"math/rand"
	"testing"
)

// refTrainStep is TrainStep written the plain way: one row at a time, one
// weight at a time, every weight updated, on freshly allocated buffers. It
// is the definition the fused and skipping kernel must reproduce bit for
// bit.
func refTrainStep(n *Network, x, target []float64, lr, momentum float64) float64 {
	L := len(n.W)
	acts := [][]float64{x}
	for l := 0; l < L; l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		a := make([]float64, out)
		for j := range a {
			s := n.B[l][j]
			for i := 0; i < in; i++ {
				s += n.W[l][j*in+i] * acts[l][i]
			}
			if l < L-1 {
				switch n.Act {
				case ReLU:
					if s < 0 {
						s = 0
					}
				default:
					s = math.Tanh(s)
				}
			}
			a[j] = s
		}
		acts = append(acts, a)
	}
	delta := make([]float64, n.Sizes[L])
	loss := 0.0
	for j := range delta {
		e := acts[L][j] - target[j]
		delta[j] = e
		loss += e * e
	}
	loss /= float64(len(delta))
	for l := L - 1; l >= 0; l-- {
		in := n.Sizes[l]
		next := make([]float64, in)
		for j, d := range delta {
			for i := 0; i < in; i++ {
				e := j*in + i
				w := n.W[l][e]
				next[i] += w * d
				g := d * acts[l][i]
				m := momentum*n.mW[l][e] - lr*g
				n.mW[l][e] = m
				n.W[l][e] = w + m
			}
			n.mB[l][j] = momentum*n.mB[l][j] - lr*d
			n.B[l][j] += n.mB[l][j]
		}
		for i, v := range acts[l] {
			switch n.Act {
			case ReLU:
				g := 0.0
				if v > 0 {
					g = 1
				}
				next[i] *= g
			default:
				next[i] *= 1 - v*v
			}
		}
		delta = next
	}
	return loss
}

// deepCopy copies a network with its momentum (Clone zeroes momentum).
func deepCopy(n *Network) *Network {
	c := &Network{Sizes: append([]int(nil), n.Sizes...), Act: n.Act}
	for l := range n.W {
		c.W = append(c.W, append([]float64(nil), n.W[l]...))
		c.B = append(c.B, append([]float64(nil), n.B[l]...))
		c.mW = append(c.mW, append([]float64(nil), n.mW[l]...))
		c.mB = append(c.mB, append([]float64(nil), n.mB[l]...))
	}
	return c
}

func sameNetBits(a, b *Network) (string, int, bool) {
	for l := range a.W {
		for name, p := range map[string][2][]float64{
			"W": {a.W[l], b.W[l]}, "B": {a.B[l], b.B[l]}, "mW": {a.mW[l], b.mW[l]}, "mB": {a.mB[l], b.mB[l]},
		} {
			for i := range p[0] {
				if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
					return name, l, false
				}
			}
		}
	}
	return "", 0, true
}

// TestKernelMatchesReference runs TrainStep and refTrainStep side by side
// on random cases the golden digest does not reach and compares W, B, the
// momenta and the loss bit for bit after every step. The cases cover -0
// inputs, columns that are zero in only some samples, targets of ±Inf and
// NaN (so ±Inf and NaN deltas), layer-0 momenta of ±0 and of 1, K and K+1
// ulps on zero columns (K = stuckUlps), weights of -0, of quiet and
// signalling NaN and just under 2^-1000 there, lr and momentum values on
// both sides of the skip's preconditions, and 1-unit and odd-width layers.
func TestKernelMatchesReference(t *testing.T) {
	shapes := [][]int{{1, 1}, {3, 1}, {5, 3, 1}, {7, 5, 3}, {2, 7, 1}, {13, 24, 16, 4}, {9, 1, 5}}
	below := math.Nextafter(0x1p-1000, 0)
	lrs := []float64{0.02, 0.5, 0, math.NaN(), math.Inf(1)}
	moms := []float64{0.9, 0.51, 1, 1.49, 0.5, 0, math.NaN()}
	// stuckUlps scans up to 2^20 subnormal multiplies for momentum 1, so
	// each (momentum, lr) pair is computed once and handed to the networks.
	type key struct{ mom, lr int }
	stuck := map[key]uint64{}
	rng := rand.New(rand.NewSource(3))
	var skipped int
	for c := 0; c < 600; c++ {
		sizes := shapes[rng.Intn(len(shapes))]
		act := Activation(rng.Intn(2))
		mi, li := rng.Intn(len(moms)), rng.Intn(len(lrs))
		lr, mom := lrs[li], moms[mi]
		n := New(int64(c), act, sizes...)
		in := sizes[0]
		k, ok := stuck[key{mi, li}]
		if !ok {
			k = n.stuckUlps(mom, lr)
			stuck[key{mi, li}] = k
		}
		n.stuck.valid, n.stuck.momentum, n.stuck.lr, n.stuck.k = true, mom, lr, k

		// Column roles: always +0 or -0, zero in some samples, or never zero.
		roles := make([]int, in)
		for i := range roles {
			roles[i] = rng.Intn(4)
		}
		// Layer-0 state on every column drawn from the edges.
		for e := range n.W[0] {
			ulps := []uint64{0, 1, k, k + 1, uint64(1 + rng.Intn(6))}[rng.Intn(5)]
			m := math.Float64frombits(ulps)
			if rng.Intn(2) == 0 {
				m = -m
			}
			if rng.Intn(6) == 0 {
				m = rng.NormFloat64() * 1e-3
			}
			n.mW[0][e] = m
			switch rng.Intn(8) {
			case 0:
				n.W[0][e] = math.Copysign(0, -1)
			case 1:
				n.W[0][e] = below
			case 2:
				n.W[0][e] = -0x1p-1000
			case 3:
				n.W[0][e] = math.NaN()
			case 4:
				n.W[0][e] = math.Float64frombits(0x7ff0000000000001) // signalling NaN: w + 0 quiets it
			}
		}
		ref := deepCopy(n)
		for s := 0; s < 6; s++ {
			x := make([]float64, in)
			for i := range x {
				switch roles[i] {
				case 0:
					x[i] = 0
				case 1:
					x[i] = math.Copysign(0, -1)
				case 2:
					if rng.Intn(2) == 0 {
						x[i] = rng.NormFloat64()
					}
				default:
					x[i] = rng.NormFloat64()
				}
			}
			y := make([]float64, sizes[len(sizes)-1])
			for j := range y {
				y[j] = rng.Float64()
				switch rng.Intn(20) {
				case 0:
					y[j] = math.Inf(1)
				case 1:
					y[j] = math.Inf(-1)
				case 2:
					y[j] = math.NaN()
				}
			}
			before := deepCopy(n)
			got := n.TrainStep(x, y, lr, mom)
			want := refTrainStep(ref, x, y, lr, mom)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d step %d (sizes %v act %d lr %v momentum %v): loss %v, reference %v", c, s, sizes, act, lr, mom, got, want)
			}
			if name, l, ok := sameNetBits(n, ref); !ok {
				t.Fatalf("case %d step %d (sizes %v act %d lr %v momentum %v x %v y %v): %s[%d] differs from the reference",
					c, s, sizes, act, lr, mom, x, y, name, l)
			}
			for e, m := range before.mW[0] {
				if x[e%in] == 0 && m == n.mW[0][e] && k > 0 {
					skipped++
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no case reached the stuck-momentum skip")
	}
}
