package mlp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearRegressionEquivalent(t *testing.T) {
	// A no-hidden-layer network is linear regression; it must learn an
	// exact linear map.
	n := New(1, Tanh, 2, 1)
	rng := rand.New(rand.NewSource(1))
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, []float64{0.5*x[0] - 0.25*x[1] + 0.1})
	}
	loss := n.TrainEpochs(xs, ys, 300, 0.05, 0.9, 2)
	if loss > 1e-6 {
		t.Fatalf("linear map not learned, loss %v", loss)
	}
}

func TestXORWithHiddenLayer(t *testing.T) {
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	n := New(3, Tanh, 2, 8, 1)
	n.TrainEpochs(xs, ys, 3000, 0.05, 0.9, 4)
	for i, x := range xs {
		got := n.Predict(x)[0]
		if math.Abs(got-ys[i][0]) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", x, got, ys[i][0])
		}
	}
}

func TestReLUTrains(t *testing.T) {
	n := New(5, ReLU, 1, 8, 1)
	var xs, ys [][]float64
	for x := -1.0; x <= 1.0; x += 0.05 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Abs(x)})
	}
	loss := n.TrainEpochs(xs, ys, 800, 0.01, 0.9, 6)
	if loss > 0.01 {
		t.Fatalf("ReLU net failed to fit |x|, loss %v", loss)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() *Network {
		n := New(7, Tanh, 2, 6, 1)
		xs := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}}
		ys := [][]float64{{1}, {0}, {0.5}}
		n.TrainEpochs(xs, ys, 50, 0.05, 0.9, 8)
		return n
	}
	a, b := build(), build()
	for l := range a.W {
		for i := range a.W[l] {
			if a.W[l][i] != b.W[l][i] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestClone(t *testing.T) {
	n := New(9, Tanh, 2, 4, 1)
	c := n.Clone()
	x := []float64{0.3, -0.7}
	if n.Predict(x)[0] != c.Predict(x)[0] {
		t.Fatal("clone predicts differently")
	}
	// Training the clone must not affect the original.
	before := n.Predict(x)[0]
	c.TrainStep(x, []float64{5}, 0.5, 0)
	if n.Predict(x)[0] != before {
		t.Fatal("training clone mutated original")
	}
}

// TestPredictResultSurvivesTrainStep pins the scratch-buffer contract a
// caller that trains toward its own prediction depends on, as a Q-learning
// Bellman target does: target := n.Predict(s) followed by
// n.TrainStep(s, target, ...) must behave exactly as if target had been
// copied — TrainStep's forward pass runs in the activation scratch, never
// in the buffer backing Predict's result.
func TestPredictResultSurvivesTrainStep(t *testing.T) {
	build := func() *Network { return New(3, Tanh, 4, 6, 2) }
	x := []float64{0.2, -0.4, 0.9, 0.1}

	scratch := build()
	target := scratch.Predict(x)
	target[0] += 0.3 // a Bellman-target style mutation
	scratch.TrainStep(x, target, 0.1, 0.5)

	copied := build()
	tgt := append([]float64(nil), copied.Predict(x)...)
	tgt[0] += 0.3
	copied.TrainStep(x, tgt, 0.1, 0.5)

	for l := range scratch.W {
		for i := range scratch.W[l] {
			if scratch.W[l][i] != copied.W[l][i] {
				t.Fatalf("layer %d weight %d diverged: scratch target was clobbered by TrainStep", l, i)
			}
		}
	}
}

// TestPredictReusesBuffer documents (and pins) the Predict return contract:
// the slice is per-network scratch, overwritten by the next Predict on the
// same network, while a different network's result is unaffected.
func TestPredictReusesBuffer(t *testing.T) {
	n := New(5, Tanh, 2, 4, 1)
	a := n.Predict([]float64{1, 0})
	first := a[0]
	b := n.Predict([]float64{0, 1})
	if &a[0] != &b[0] {
		t.Fatal("Predict allocated a new buffer; the zero-allocation contract regressed")
	}
	other := n.Clone().Predict([]float64{1, 0})
	if other[0] != first {
		t.Fatal("a clone's Predict disagreed with the original's for the same input")
	}
	if &other[0] == &b[0] {
		t.Fatal("clone shares the original's scratch buffer")
	}
}

func TestNumParams(t *testing.T) {
	n := New(1, Tanh, 3, 5, 2)
	want := 3*5 + 5 + 5*2 + 2
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	// The governor-residence constraint: the default policy net must stay
	// small (a few KB of float64 parameters).
	pol := New(1, Tanh, 13, 24, 16, 4)
	if pol.NumParams()*8 > 10*1024 {
		t.Fatalf("policy network too large for a governor: %d bytes", pol.NumParams()*8)
	}
}

func TestInputDimPanics(t *testing.T) {
	n := New(1, Tanh, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dim")
		}
	}()
	n.Predict([]float64{1})
}

func TestTrainStepReducesLoss(t *testing.T) {
	n := New(11, Tanh, 2, 6, 1)
	x := []float64{0.5, -0.5}
	target := []float64{0.8}
	first := n.TrainStep(x, target, 0.05, 0)
	var last float64
	for i := 0; i < 100; i++ {
		last = n.TrainStep(x, target, 0.05, 0)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}
