package nmpc

import (
	"socrm/internal/gpu"
	"socrm/internal/regtree"
)

// Explicit is the explicit NMPC controller (refs [20][21], applied to the
// GPU in ref [22]): the NMPC control surface — the map from (forecast
// load, current slice count) to the optimal (frequency, slices) — is
// sampled offline and approximated with small regression trees. Trees suit
// this surface because it is piecewise (the slice count is discrete), and
// tree inference is a handful of comparisons, cheap enough for firmware.
// The multi-rate structure (slice changes only every SlowPeriod frames) is
// preserved online, and a feasibility guard keeps explicitMargin of the
// frame budget as deadline slack.
type Explicit struct {
	Dev    *gpu.Device
	Models *GPUModels

	FreqSurf  *regtree.Tree // (load, curSlices) -> normalized freq idx
	SliceSurf *regtree.Tree // (load, curSlices) -> normalized slices

	// SlowPeriod is the number of frames between slice changes; the
	// cadence ablation sweeps it, FitExplicit sets slowPeriod.
	SlowPeriod int

	cur       gpu.State
	havestate bool
	sinceSlow int
}

// FitExplicit samples the NMPC optimizer over a load/slice grid and fits
// the two control surfaces. The models must already be warmed (offline
// phase).
func FitExplicit(dev *gpu.Device, models *GPUModels, budget float64) (*Explicit, error) {
	solver := NewMultiRate(dev, models)
	var xs [][]float64
	var yF, yS []float64
	maxCap := dev.MaxCapacity()
	for curS := 1; curS <= dev.MaxSlices; curS++ {
		for load := 0.02; load <= 0.98; load += 0.01 {
			work := load * (budget - dev.FixedOverhead) * maxCap
			best := solver.solve(work, budget, gpu.State{FreqIdx: 0, Slices: curS}, 0)
			xs = append(xs, []float64{load, float64(curS) / float64(dev.MaxSlices)})
			yF = append(yF, float64(best.FreqIdx)/float64(len(dev.OPPs)-1))
			yS = append(yS, float64(best.Slices-1)/float64(maxIntE(dev.MaxSlices-1, 1)))
		}
	}
	params := regtree.Params{MaxDepth: 10, MinLeafSamples: 2, MinGain: 1e-12}
	fs, err := regtree.Fit(xs, yF, params)
	if err != nil {
		return nil, err
	}
	ss, err := regtree.Fit(xs, yS, params)
	if err != nil {
		return nil, err
	}
	return &Explicit{
		Dev:        dev,
		Models:     models,
		FreqSurf:   fs,
		SliceSurf:  ss,
		SlowPeriod: slowPeriod,
	}, nil
}

// FitExplicitSurfaces runs the full offline phase on fresh models: warm
// them at the budget, sample the NMPC optimizer and fit the control
// surfaces. The result carries only the surfaces (Models is nil): Fig5 and
// the cadence ablation read it as a read-only reference and attach their
// own warmed models to each per-trace controller.
func FitExplicitSurfaces(dev *gpu.Device, budget float64) (*Explicit, error) {
	models := NewGPUModels(dev)
	models.Warmup(budget)
	ex, err := FitExplicit(dev, models, budget)
	if err != nil {
		return nil, err
	}
	ex.Models = nil
	return ex, nil
}

// explicitMargin is the fraction of the frame budget the explicit
// controller's feasibility guard keeps as deadline slack (Figure 5).
const explicitMargin float64 = 0.08

func maxIntE(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name implements Controller.
func (c *Explicit) Name() string { return "explicit-nmpc" }

// surface evaluates the fitted control surfaces for a forecast load. The
// input vector lives on the stack, so per-frame evaluation allocates
// nothing.
func (c *Explicit) surface(load float64, curSlices int) gpu.State {
	x := [2]float64{load, float64(curSlices) / float64(c.Dev.MaxSlices)}
	fNorm := clamp01(c.FreqSurf.Predict(x[:]))
	sNorm := clamp01(c.SliceSurf.Predict(x[:]))
	return c.Dev.Clamp(gpu.State{
		FreqIdx: int(fNorm*float64(len(c.Dev.OPPs)-1) + 0.5),
		Slices:  1 + int(sNorm*float64(c.Dev.MaxSlices-1)+0.5),
	})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Next implements Controller: evaluate the explicit surface, honour the
// multi-rate slice cadence, and keep a model-based feasibility guard (a
// firmware implementation does the same sanity clamp).
func (c *Explicit) Next(obs FrameObs) gpu.State {
	c.Models.Observe(obs.Stats, obs.Budget)
	if !c.havestate {
		c.cur = gpu.State{FreqIdx: len(c.Dev.OPPs) / 2, Slices: c.Dev.MaxSlices}
		c.havestate = true
	}
	work := c.Models.WorkForecast()
	load := work / ((obs.Budget - c.Dev.FixedOverhead) * c.Dev.MaxCapacity())
	want := c.surface(clamp01(load), c.cur.Slices)

	c.sinceSlow++
	if c.sinceSlow < c.SlowPeriod {
		want.Slices = c.cur.Slices // fast rate: frequency only
	} else {
		c.sinceSlow = 0
	}

	// Feasibility guard: bump frequency until the predicted render time
	// fits the deadline.
	deadline := obs.Budget * (1 - explicitMargin)
	for want.FreqIdx < len(c.Dev.OPPs)-1 {
		t := c.Models.PredictTime(work, want)
		if want.Slices != c.cur.Slices {
			t += c.Dev.ReconfigTime
		}
		if t <= deadline {
			break
		}
		want.FreqIdx++
	}
	c.cur = c.Dev.Clamp(want)
	return c.cur
}
