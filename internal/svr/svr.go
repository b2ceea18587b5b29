// Package svr implements linear epsilon-insensitive support vector
// regression trained by stochastic subgradient descent. Ref [34] (Qian et
// al.) uses SVR to correct analytical NoC latency estimates against
// simulation; internal/noc reproduces that pipeline with this learner.
package svr

import (
	"fmt"
	"math/rand"
)

// Params configures training.
type Params struct {
	Epsilon float64 // insensitive-tube half width
	C       float64 // loss weight vs. regularization
	Epochs  int
	LR      float64 // initial learning rate (decays 1/sqrt(t))
	Seed    int64
}

// DefaultParams returns a reasonable configuration for normalized features.
func DefaultParams() Params {
	return Params{Epsilon: 0.01, C: 10, Epochs: 60, LR: 0.05, Seed: 1}
}

// Model is a fitted linear SVR y = w'x + b.
type Model struct {
	W    []float64
	Bias float64
}

// Predict evaluates the model.
func (m *Model) Predict(x []float64) float64 {
	s := m.Bias
	for i, v := range x {
		s += m.W[i] * v
	}
	return s
}

// Fit trains the model by subgradient descent on
//
//	0.5*||w||^2 + C * sum max(0, |w'x+b - y| - epsilon).
func Fit(xs [][]float64, ys []float64, p Params) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("svr: no samples")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("svr: %d samples, %d targets", len(xs), len(ys))
	}
	d := len(xs[0])
	m := &Model{W: make([]float64, d)}
	rng := rand.New(rand.NewSource(p.Seed))
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	t := 0
	n := float64(len(xs))
	for e := 0; e < p.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t++
			lr := p.LR / (1 + p.LR*float64(t)/n)
			x := xs[i]
			r := m.Predict(x) - ys[i]
			// Regularization shrink (w only, not bias).
			for k := range m.W {
				m.W[k] *= 1 - lr/n
			}
			var sign float64
			switch {
			case r > p.Epsilon:
				sign = 1
			case r < -p.Epsilon:
				sign = -1
			default:
				continue
			}
			g := lr * p.C * sign / n
			for k := range m.W {
				m.W[k] -= g * x[k]
			}
			m.Bias -= g
		}
	}
	return m, nil
}
