package nmpc

import (
	"math"

	"socrm/internal/gpu"
)

// MultiRate is the multi-rate NMPC controller of ref [22]: the slow-rate
// loop re-solves the constrained nonlinear program over both knobs (active
// slices and frequency) every slowPeriod frames, amortizing the expensive
// slice reconfiguration; the fast-rate loop re-optimizes frequency alone on
// every frame using the sensitivity models, which hardware can apply
// immediately. Its cadence, deadline slack and horizon are the constants of
// the Figure 5 reproduction.
type MultiRate struct {
	Dev    *gpu.Device
	Models *GPUModels

	cur       gpu.State
	havestate bool
	sinceSlow int
}

// The multi-rate NMPC's schedule (Section IV-B).
const (
	// slowPeriod is the number of frames between slice decisions; it is
	// also the default cadence of the explicit controller.
	slowPeriod = 30
	// multiRateMargin is the fraction of the frame budget the solver
	// reserves as deadline slack.
	multiRateMargin float64 = 0.10
	// horizon is the number of frames the slow-rate program looks ahead,
	// over which it amortizes a reconfiguration's energy.
	horizon = 30
)

// NewMultiRate returns the controller of the Figure 5 reproduction.
func NewMultiRate(dev *gpu.Device, models *GPUModels) *MultiRate {
	return &MultiRate{Dev: dev, Models: models}
}

// Name implements Controller.
func (c *MultiRate) Name() string { return "nmpc" }

// solve runs the constrained optimization: minimize predicted energy per
// frame over the horizon subject to the deadline (with margin), amortizing
// the reconfiguration cost over the horizon. If freezeSlices is >= 1 only
// the frequency is free (the fast-rate problem).
func (c *MultiRate) solve(work, budget float64, cur gpu.State, freezeSlices int) gpu.State {
	deadline := budget * (1 - multiRateMargin)
	best := c.Dev.MaxState()
	bestCost := math.Inf(1)
	feasible := false
	sliceLo, sliceHi := 1, c.Dev.MaxSlices
	if freezeSlices >= 1 {
		sliceLo, sliceHi = freezeSlices, freezeSlices
	}
	for s := sliceLo; s <= sliceHi; s++ {
		for f := 0; f < len(c.Dev.OPPs); f++ {
			st := gpu.State{FreqIdx: f, Slices: s}
			t := c.Models.PredictTime(work, st)
			if s != cur.Slices {
				t += c.Dev.ReconfigTime
			}
			if t > deadline {
				continue
			}
			cost := c.Models.PredictEnergy(work, st, budget)
			if s != cur.Slices {
				cost += c.Dev.ReconfigJ / horizon
			}
			if cost < bestCost {
				best, bestCost = st, cost
				feasible = true
			}
		}
	}
	if !feasible {
		// No state meets the deadline under the models: run flat out.
		return c.Dev.MaxState()
	}
	return best
}

// Next implements Controller: slow-rate joint solve every slowPeriod
// frames, fast-rate frequency-only solve otherwise.
func (c *MultiRate) Next(obs FrameObs) gpu.State {
	c.Models.Observe(obs.Stats, obs.Budget)
	if !c.havestate {
		c.cur = gpu.State{FreqIdx: len(c.Dev.OPPs) / 2, Slices: c.Dev.MaxSlices}
		c.havestate = true
	}
	work := c.Models.WorkForecast()
	c.sinceSlow++
	if c.sinceSlow >= slowPeriod {
		c.sinceSlow = 0
		c.cur = c.solve(work, obs.Budget, c.cur, 0)
	} else {
		c.cur = c.solve(work, obs.Budget, c.cur, c.cur.Slices)
	}
	return c.cur
}
