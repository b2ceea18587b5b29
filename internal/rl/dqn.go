package rl

import (
	"math/rand"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/soc"
)

// DQN is the deep-Q-network baseline of ref [14]: an MLP maps the state
// features to per-action Q-values, trained from an experience-replay
// buffer against a slowly synced target network.
type DQN struct {
	P      *soc.Platform
	Net    *mlp.Network
	Target *mlp.Network
	Scaler *counters.Scaler

	Gamma      float64
	Epsilon    float64
	EpsilonMin float64
	EpsDecay   float64 // multiplicative per decision
	LR         float64
	BatchSize  int
	ReplayCap  int
	SyncEvery  int // decisions between target-network syncs

	replay    []transition
	replayPos int
	rng       *rand.Rand
	last      *pending
	steps     int
}

type transition struct {
	s     []float64
	a     Action
	r     float64
	sNext []float64
}

type pending struct {
	s []float64
	a Action
}

// NewDQN builds the deep-Q decider. The scaler should be fit on the same
// design-time data the IL policy used, mirroring a fair offline phase.
func NewDQN(p *soc.Platform, scaler *counters.Scaler, seed int64) *DQN {
	net := mlp.New(seed, mlp.Tanh, control.NumFeatures, 32, 24, int(NumActions))
	return &DQN{
		P:          p,
		Net:        net,
		Target:     net.Clone(),
		Scaler:     scaler,
		Gamma:      0.7,
		Epsilon:    0.25,
		EpsilonMin: 0.05,
		EpsDecay:   0.999,
		LR:         0.003,
		BatchSize:  16,
		ReplayCap:  512,
		SyncEvery:  64,
		rng:        rand.New(rand.NewSource(seed + 1)),
	}
}

// Name implements control.Decider.
func (d *DQN) Name() string { return "rl-dqn" }

func (d *DQN) features(st control.State) []float64 {
	return d.Scaler.Transform(st.Features(d.P))
}

// Greedy returns the argmax action under the online network.
func (d *DQN) Greedy(st control.State) Action {
	q := d.Net.Predict(d.features(st))
	best := 0
	for a := 1; a < len(q); a++ {
		if q[a] > q[best] {
			best = a
		}
	}
	return Action(best)
}

// PolicyConfig returns the greedy configuration for Oracle-agreement
// tracking.
func (d *DQN) PolicyConfig(st control.State) soc.Config {
	return d.Greedy(st).Apply(d.P, st.Config)
}

// Decide implements control.Decider.
func (d *DQN) Decide(st control.State) soc.Config {
	d.steps++
	var a Action
	if d.rng.Float64() < d.Epsilon {
		a = Action(d.rng.Intn(int(NumActions)))
	} else {
		a = d.Greedy(st)
	}
	if d.Epsilon > d.EpsilonMin {
		d.Epsilon *= d.EpsDecay
	}
	d.last = &pending{s: d.features(st), a: a}
	return a.Apply(d.P, st.Config)
}

// Observe implements control.Observer: store the transition and train on a
// replay minibatch.
func (d *DQN) Observe(_ control.State, _ soc.Config, res soc.Result, next control.State) {
	if d.last == nil {
		return
	}
	tr := transition{s: d.last.s, a: d.last.a, r: Reward(res), sNext: d.features(next)}
	if len(d.replay) < d.ReplayCap {
		d.replay = append(d.replay, tr)
	} else {
		d.replay[d.replayPos] = tr
		d.replayPos = (d.replayPos + 1) % d.ReplayCap
	}
	d.train()
	if d.steps%d.SyncEvery == 0 {
		d.Target = d.Net.Clone()
	}
}

func (d *DQN) train() {
	n := len(d.replay)
	if n < d.BatchSize {
		return
	}
	for b := 0; b < d.BatchSize; b++ {
		tr := d.replay[d.rng.Intn(n)]
		qNext := d.Target.Predict(tr.sNext)
		maxQ := qNext[0]
		for _, v := range qNext[1:] {
			if v > maxQ {
				maxQ = v
			}
		}
		target := d.Net.Predict(tr.s)
		target[tr.a] = tr.r + d.Gamma*maxQ
		d.Net.TrainStep(tr.s, target, d.LR, 0)
	}
}
