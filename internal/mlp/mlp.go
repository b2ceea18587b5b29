// Package mlp implements the small multilayer perceptron used for the
// online-IL policy (Section IV-A3: "the policy is represented as a neural
// network and it is updated using the back-propagation algorithm").
// Training is plain SGD with momentum; everything is deterministic given
// the seed.
package mlp

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Tanh is the default hidden activation.
	Tanh Activation = iota
	// ReLU is a rectified-linear hidden activation.
	ReLU
)

// Network is a fully connected feed-forward network with linear outputs.
//
// A Network is NOT goroutine-safe: training always mutated the weights, and
// Predict/TrainStep/TrainEpochs now additionally share per-network scratch
// buffers (activations, backprop deltas, the Predict output) so the forward
// and backward passes are allocation-free. Give each concurrent consumer its
// own Clone.
type Network struct {
	Sizes  []int // layer widths, input..output
	Act    Activation
	W      [][]float64 // W[l][j*in+i]: layer l weight from input i to unit j
	B      [][]float64
	mW, mB [][]float64 // momentum buffers

	// Scratch reused across calls (lazily sized, never serialized):
	// acts[0] aliases the current input during a pass, acts[1..] and
	// deltas[1..] are per-layer buffers, predOut backs Predict's result,
	// order backs TrainEpochs' shuffle and rng its epoch shuffling (the
	// source is re-seeded per call, so reuse is invisible to outputs).
	acts    [][]float64
	deltas  [][]float64
	predOut []float64
	order   []int
	rng     *rand.Rand
	// stuck caches stuckUlps' k for the (momentum, lr) it was computed for.
	stuck struct {
		valid        bool
		momentum, lr float64
		k            uint64
	}
}

// New constructs a network with the given layer sizes (at least input and
// output) and Xavier-style initialization.
func New(seed int64, act Activation, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{Sizes: sizes, Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, out))
		n.mW = append(n.mW, make([]float64, in*out))
		n.mB = append(n.mB, make([]float64, out))
	}
	return n
}

// NumParams returns the total number of trainable parameters; the paper
// cares about this because the policy must fit in an OS governor (<20KB of
// state for the adaptation buffer, a few KB for the network).
func (n *Network) NumParams() int {
	total := 0
	for l := range n.W {
		total += len(n.W[l]) + len(n.B[l])
	}
	return total
}

// activate applies the hidden nonlinearity to every element of a.
func (n *Network) activate(a []float64) {
	switch n.Act {
	case ReLU:
		for j, v := range a {
			if v < 0 {
				a[j] = 0
			}
		}
	default:
		for j, v := range a {
			a[j] = math.Tanh(v)
		}
	}
}

// scaleByActGrad multiplies each backprop delta by the activation's
// derivative, expressed in terms of the unit's output a.
func (n *Network) scaleByActGrad(delta, a []float64) {
	a = a[:len(delta)]
	switch n.Act {
	case ReLU:
		for i, v := range a {
			g := 0.0
			if v > 0 {
				g = 1
			}
			delta[i] *= g
		}
	default:
		for i, v := range a {
			delta[i] *= 1 - v*v // tanh'(x) in terms of tanh(x)
		}
	}
}

// ensureScratch lazily sizes the shared forward/backward buffers.
func (n *Network) ensureScratch() {
	if n.acts != nil {
		return
	}
	L := len(n.Sizes)
	n.acts = make([][]float64, L)
	n.deltas = make([][]float64, L)
	for l := 1; l < L; l++ {
		n.acts[l] = make([]float64, n.Sizes[l])
		n.deltas[l] = make([]float64, n.Sizes[l])
	}
	n.predOut = make([]float64, n.Sizes[L-1])
}

// forward runs the network and returns the per-layer activations (needed
// for backprop). The returned slices are the network's scratch buffers;
// acts[0] aliases x until the next pass.
//
// Unit j's pre-activation is B[j] + W[j,0]*x[0] + W[j,1]*x[1] + ..., added
// in input order. Four rows share each pass over the inputs, but each row
// keeps its own sequential sum, so every unit's result is bit-identical
// to a row-at-a-time loop. The loops walk W, B and the outputs by
// advancing slices; each row is cut to exactly len(prev) so the inner
// loops carry no bounds checks.
func (n *Network) forward(x []float64) [][]float64 {
	if len(x) != n.Sizes[0] {
		panic(fmt.Sprintf("mlp: input dim %d, want %d", len(x), n.Sizes[0]))
	}
	n.ensureScratch()
	acts := n.acts
	acts[0] = x
	for l, W := range n.W {
		prev, a, B := acts[l], acts[l+1], n.B[l]
		in := len(prev)
		for ; len(a) >= 4; a, B, W = a[4:], B[4:], W[4*in:] {
			w0, w1, w2, w3 := W[:in], W[in:][:in], W[2*in:][:in], W[3*in:][:in]
			s0, s1, s2, s3 := B[0], B[1], B[2], B[3]
			for i, p := range prev {
				s0 += w0[i] * p
				s1 += w1[i] * p
				s2 += w2[i] * p
				s3 += w3[i] * p
			}
			a[0], a[1], a[2], a[3] = s0, s1, s2, s3
		}
		for ; len(a) > 0; a, B, W = a[1:], B[1:], W[in:] {
			w0 := W[:in]
			s := B[0]
			for i, p := range prev {
				s += w0[i] * p
			}
			a[0] = s
		}
		if l < len(n.W)-1 {
			n.activate(acts[l+1])
		}
	}
	return acts
}

// Predict returns the network output for input x. The returned slice is a
// per-network scratch buffer, valid until the next Predict on this network
// (callers may mutate it; callers that retain it across calls must copy).
func (n *Network) Predict(x []float64) []float64 {
	acts := n.forward(x)
	copy(n.predOut, acts[len(acts)-1])
	n.acts[0] = nil // do not pin the caller's input between calls
	return n.predOut
}

// TrainStep performs one SGD-with-momentum step on a single (x, target)
// pair under MSE loss and returns the sample loss before the update.
//
// Each weight's update is g = d*p; m = momentum*m - lr*g; w = w + m, with
// the incoming delta accumulated from the pre-update w in output-unit
// order. The loops below fuse and skip work but keep exactly those
// operations per element (TestTrainingGoldenDigest pins the bits).
func (n *Network) TrainStep(x, target []float64, lr, momentum float64) float64 {
	acts := n.forward(x)
	L := len(n.W)
	out := acts[L]
	if len(target) != len(out) {
		panic(fmt.Sprintf("mlp: target dim %d, want %d", len(target), len(out)))
	}
	// Output delta (linear output + MSE).
	delta := n.deltas[L]
	loss := 0.0
	for j := range out {
		e := out[j] - target[j]
		delta[j] = e
		loss += e * e
	}
	loss /= float64(len(out))

	for l := L - 1; l >= 0; l-- {
		prev, delta := acts[l], n.deltas[l+1]
		if l > 0 {
			nextDelta := n.deltas[l]
			clear(nextDelta)
			backpropLayer(nextDelta, prev, delta, n.W[l], n.mW[l], lr, momentum)
			n.scaleByActGrad(nextDelta, prev)
		} else {
			updateInputLayer(prev, delta, n.W[0], n.mW[0], lr, momentum, n.stuckUlps(momentum, lr))
		}
		mB, B := n.mB[l][:len(delta)], n.B[l][:len(delta)]
		for j, d := range delta {
			mB[j] = momentum*mB[j] - lr*d
			B[j] += mB[j]
		}
	}
	n.acts[0] = nil
	return loss
}

// backpropLayerGo accumulates the delta of a hidden layer's inputs into
// nextDelta (zeroed by the caller) and applies the layer's weight update.
// Rows go in pairs: each weight is loaded once for both its share of
// nextDelta and its own update, and nextDelta[i] still adds row j's term
// before row j+1's. It is backpropLayer wherever the vector kernel does
// not run.
func backpropLayerGo(nextDelta, prev, delta, W, M []float64, lr, momentum float64) {
	in := len(prev)
	nextDelta = nextDelta[:in]
	for ; len(delta) >= 2; delta, W, M = delta[2:], W[2*in:], M[2*in:] {
		d0, d1 := delta[0], delta[1]
		w0, w1 := W[:in], W[in:][:in]
		m0, m1 := M[:in], M[in:][:in]
		for i, p := range prev {
			a, b := w0[i], w1[i]
			nextDelta[i] = nextDelta[i] + a*d0 + b*d1
			ma := momentum*m0[i] - lr*(d0*p)
			mb := momentum*m1[i] - lr*(d1*p)
			m0[i], m1[i] = ma, mb
			w0[i], w1[i] = a+ma, b+mb
		}
	}
	if len(delta) > 0 {
		d0 := delta[0]
		w0, m0 := W[:in], M[:in]
		for i, p := range prev {
			a := w0[i]
			nextDelta[i] += a * d0
			ma := momentum*m0[i] - lr*(d0*p)
			m0[i] = ma
			w0[i] = a + ma
		}
	}
}

// updateInputLayerGo applies the input layer's weight update
// m = momentum*m - lr*(d*p); w = w + m, skipping the updates that provably
// leave w and m unchanged. Where the input p is ±0 and d and lr are finite,
// lr*(d*p) is ±0, so:
//   - m = m whenever |m| is 1..k ulps (see stuckUlps), and |m| <= 2^20
//     ulps = 2^-1054 is under half an ulp of any |w| >= 2^-1000, so
//     w + m = w;
//   - m = +0 stays +0 (k > 0 implies 0.5 < momentum < 1.5, so
//     momentum*m = +0, and +0 - ±0 = +0), and w + +0 = w for any w that
//     is neither -0 nor NaN, which |w| >= 2^-1000 also rules out.
//
// Served policies hit both on every retrain: an input column the scaler
// maps to exactly 0 keeps its momentum at +0 or at a subnormal fixed
// point, and each subnormal multiply costs a microcode assist. When
// nothing can be skipped (k = 0, or some d is ±Inf or NaN, for which d*0
// is NaN) every weight takes the plain update.
//
// The skip test sits inside its own if on p == 0: folded into one
// condition, the compiler kept the combined bool on the stack and reloaded
// it for every element. It is updateInputLayer wherever the vector kernel
// does not run.
func updateInputLayerGo(x, delta, W, M []float64, lr, momentum float64, k uint64) {
	const signBit = 1 << 63
	in := len(x)
	if k == 0 || !finite(delta) {
		for _, d := range delta {
			w, m := W[:in], M[:in]
			W, M = W[in:], M[in:]
			for i, p := range x {
				mi := momentum*m[i] - lr*(d*p)
				m[i] = mi
				w[i] += mi
			}
		}
		return
	}
	for _, d := range delta {
		w, m := W[:in], M[:in]
		W, M = W[in:], M[in:]
		for i, p := range x {
			if p == 0 {
				if b := math.Float64bits(m[i]); (b == 0 || b&^signBit-1 < k) && math.Abs(w[i]) >= 0x1p-1000 {
					continue
				}
			}
			mi := momentum*m[i] - lr*(d*p)
			m[i] = mi
			w[i] += mi
		}
	}
}

// finite reports whether every element of v is finite.
func finite(v []float64) bool {
	for _, d := range v {
		if !(math.Abs(d) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// stuckUlps returns the largest k <= 2^20 such that momentum*m == m for
// every subnormal m of 1..k ulps (either sign), or 0 when lr is not
// finite. It is 5 for momentum 0.9: float64(0.9) lies just above 0.9, so
// 0.9 * (5 ulps) = 4.5000...01 ulps rounds back to 5. It is computed with
// the actual multiplies and cached per (momentum, lr).
func (n *Network) stuckUlps(momentum, lr float64) uint64 {
	if n.stuck.valid && n.stuck.momentum == momentum && n.stuck.lr == lr {
		return n.stuck.k
	}
	var k uint64
	if math.Abs(lr) <= math.MaxFloat64 {
		for k < 1<<20 {
			m := math.Float64frombits(k + 1)
			if momentum*m != m || momentum*-m != -m {
				break
			}
			k++
		}
	}
	n.stuck.valid, n.stuck.momentum, n.stuck.lr, n.stuck.k = true, momentum, lr, k
	return k
}

// TrainEpochs runs full-batch epochs of per-sample SGD over the dataset in
// a deterministic shuffled order and returns the final mean loss.
func (n *Network) TrainEpochs(xs, ys [][]float64, epochs int, lr, momentum float64, seed int64) float64 {
	if len(xs) != len(ys) {
		panic("mlp: xs/ys length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	// Re-seeding the persistent rng replays exactly the stream a fresh
	// rand.New(rand.NewSource(seed)) would produce, without the per-call
	// source+rng allocations the retrain-heavy online loop used to pay.
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(seed))
	} else {
		n.rng.Seed(seed)
	}
	if cap(n.order) < len(xs) {
		n.order = make([]int, len(xs))
	}
	order := n.order[:len(xs)]
	for i := range order {
		order[i] = i
	}
	// One swap closure for all epochs; allocating it inside the loop cost
	// an object per epoch across every incremental policy update.
	swap := func(i, j int) { order[i], order[j] = order[j], order[i] }
	last := 0.0
	for e := 0; e < epochs; e++ {
		n.rng.Shuffle(len(order), swap)
		sum := 0.0
		for _, i := range order {
			sum += n.TrainStep(xs[i], ys[i], lr, momentum)
		}
		last = sum / float64(len(xs))
	}
	return last
}

// Clone copies the network's shape, weights and biases. The copy's SGD
// momentum starts at zero and its scratch and rng are fresh (TrainEpochs
// re-seeds the rng per call), so training it starts a new optimizer
// trajectory. Every served and experiment policy clone (MLPPolicy.Clone)
// goes through it.
func (n *Network) Clone() *Network {
	c := &Network{Sizes: append([]int(nil), n.Sizes...), Act: n.Act}
	for l := range n.W {
		c.W = append(c.W, append([]float64(nil), n.W[l]...))
		c.B = append(c.B, append([]float64(nil), n.B[l]...))
		c.mW = append(c.mW, make([]float64, len(n.W[l])))
		c.mB = append(c.mB, make([]float64, len(n.B[l])))
	}
	return c
}
