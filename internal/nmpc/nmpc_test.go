package nmpc

import (
	"math"
	"testing"

	"socrm/internal/gpu"
	"socrm/internal/workload"
)

func TestGPUModelsWarmupAccuracy(t *testing.T) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := NewGPUModels(dev)
	m.Warmup(budget)
	// Held-out operating point.
	s := gpu.State{FreqIdx: 7, Slices: 2}
	work := 0.4 * (budget - dev.FixedOverhead) * dev.MaxCapacity()
	truthT := dev.RenderTime(work, s)
	if rel := math.Abs(m.PredictTime(work, s)-truthT) / truthT; rel > 0.1 {
		t.Fatalf("render-time prediction off by %.0f%%", 100*rel)
	}
	idle := budget - truthT
	truthE := dev.Power(s)*truthT + dev.IdlePower(s)*idle
	if rel := math.Abs(m.PredictEnergy(work, s, budget)-truthE) / truthE; rel > 0.15 {
		t.Fatalf("energy prediction off by %.0f%%", 100*rel)
	}
}

func TestGPUModelsForecastTracks(t *testing.T) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := NewGPUModels(dev)
	m.Warmup(budget)
	st := gpu.State{FreqIdx: 8, Slices: 2}
	for i := 0; i < 50; i++ {
		stats := dev.RenderFrame(workload.Frame{Load: 0.5, MemRatio: 0.3}, budget, st, st)
		m.Observe(stats, budget)
	}
	want := 0.5 * (budget - dev.FixedOverhead) * dev.MaxCapacity()
	if rel := math.Abs(m.WorkForecast()-want) / want; rel > 0.05 {
		t.Fatalf("work forecast off by %.0f%%", 100*rel)
	}
}

// slicesSpy wraps a controller and records every state it returns whose
// slice count is not want.
type slicesSpy struct {
	Controller
	want, calls int
	gated       []gpu.State
}

func (s *slicesSpy) Next(obs FrameObs) gpu.State {
	st := s.Controller.Next(obs)
	s.calls++
	if st.Slices != s.want {
		s.gated = append(s.gated, st)
	}
	return st
}

func TestBaselineKeepsAllSlices(t *testing.T) {
	dev := gpu.NewIntelGen9()
	trace := workload.Fig5Traces(30, 1)[7] // SharkDash: lightest
	spy := &slicesSpy{Controller: NewBaseline(dev), want: dev.MaxSlices}
	res := RunTrace(dev, trace, spy, RunOptions{Start: dev.MaxState()})
	if spy.calls != len(trace.Frames) {
		t.Fatalf("baseline chose %d states over %d frames", spy.calls, len(trace.Frames))
	}
	if len(spy.gated) > 0 {
		t.Fatalf("baseline gated slices in %d states, first %+v; it must keep all %d", len(spy.gated), spy.gated[0], dev.MaxSlices)
	}
	if res.PerfOverhead() > 0.02 {
		t.Fatalf("baseline misses %.1f%% of deadlines", 100*res.PerfOverhead())
	}
}

func TestMultiRateSolveMeetsDeadline(t *testing.T) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := NewGPUModels(dev)
	m.Warmup(budget)
	c := NewMultiRate(dev, m)
	for _, load := range []float64{0.1, 0.4, 0.7, 0.9} {
		work := load * (budget - dev.FixedOverhead) * dev.MaxCapacity()
		st := c.solve(work, budget, gpu.State{FreqIdx: 8, Slices: 2}, 0)
		if tr := dev.RenderTime(work, st); tr > budget {
			t.Fatalf("load %v: solver state %v misses the deadline (%v > %v)", load, st, tr, budget)
		}
	}
}

func TestMultiRateGatesSlicesForLightLoad(t *testing.T) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := NewGPUModels(dev)
	m.Warmup(budget)
	c := NewMultiRate(dev, m)
	lightWork := 0.1 * (budget - dev.FixedOverhead) * dev.MaxCapacity()
	st := c.solve(lightWork, budget, gpu.State{FreqIdx: 8, Slices: 3}, 0)
	if st.Slices != 1 {
		t.Fatalf("light load should gate to 1 slice, got %d", st.Slices)
	}
	heavyWork := 0.9 * (budget - dev.FixedOverhead) * dev.MaxCapacity()
	st = c.solve(heavyWork, budget, gpu.State{FreqIdx: 8, Slices: 3}, 0)
	if st.Slices != dev.MaxSlices {
		t.Fatalf("heavy load needs all slices, got %d", st.Slices)
	}
}

func TestMultiRateSlowPeriodLimitsReconfigs(t *testing.T) {
	dev := gpu.NewIntelGen9()
	trace := workload.Fig5Traces(30, 2)[0]
	m := NewGPUModels(dev)
	m.Warmup(trace.Budget())
	c := NewMultiRate(dev, m)
	res := RunTrace(dev, trace, c, RunOptions{Start: dev.MaxState()})
	maxReconfigs := len(trace.Frames)/slowPeriod + 2
	if res.Reconfigs > maxReconfigs {
		t.Fatalf("%d reconfigs exceed the slow-rate budget %d", res.Reconfigs, maxReconfigs)
	}
}

func TestNMPCBeatsBaseline(t *testing.T) {
	dev := gpu.NewIntelGen9()
	trace := workload.Fig5Traces(30, 3)[7] // SharkDash
	base := RunTrace(dev, trace, NewBaseline(dev), RunOptions{Start: dev.MaxState()})
	m := NewGPUModels(dev)
	m.Warmup(trace.Budget())
	nm := RunTrace(dev, trace, NewMultiRate(dev, m), RunOptions{Start: dev.MaxState()})
	if Savings(base.EnergyGPU, nm.EnergyGPU) < 0.2 {
		t.Fatalf("NMPC savings %.1f%% too small on the lightest title",
			100*Savings(base.EnergyGPU, nm.EnergyGPU))
	}
	if nm.PerfOverhead() > 0.02 {
		t.Fatalf("NMPC misses %.2f%% of deadlines", 100*nm.PerfOverhead())
	}
}

func TestExplicitApproximatesNMPC(t *testing.T) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := NewGPUModels(dev)
	m.Warmup(budget)
	ex, err := FitExplicit(dev, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewMultiRate(dev, m)
	// Across the load range, the explicit surface must stay close to the
	// exact NMPC solution.
	var freqErr, sliceErr float64
	n := 0
	for load := 0.05; load <= 0.95; load += 0.05 {
		work := load * (budget - dev.FixedOverhead) * dev.MaxCapacity()
		exact := solver.solve(work, budget, gpu.State{FreqIdx: 0, Slices: 2}, 0)
		approx := ex.surface(load, 2)
		freqErr += math.Abs(float64(exact.FreqIdx - approx.FreqIdx))
		sliceErr += math.Abs(float64(exact.Slices - approx.Slices))
		n++
	}
	if freqErr/float64(n) > 1.5 {
		t.Fatalf("mean frequency-surface error %.2f OPPs", freqErr/float64(n))
	}
	if sliceErr/float64(n) > 0.3 {
		t.Fatalf("mean slice-surface error %.2f", sliceErr/float64(n))
	}
}

func TestExplicitEndToEnd(t *testing.T) {
	dev := gpu.NewIntelGen9()
	trace := workload.Fig5Traces(30, 4)[4] // FruitNinja: moderate
	budget := trace.Budget()
	m := NewGPUModels(dev)
	m.Warmup(budget)
	ex, err := FitExplicit(dev, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	base := RunTrace(dev, trace, NewBaseline(dev), RunOptions{Start: dev.MaxState()})
	res := RunTrace(dev, trace, ex, RunOptions{Start: dev.MaxState()})
	if Savings(base.EnergyGPU, res.EnergyGPU) <= 0 {
		t.Fatal("explicit NMPC should save GPU energy vs the baseline")
	}
	if res.PerfOverhead() > 0.01 {
		t.Fatalf("perf overhead %.2f%% exceeds the paper's regime", 100*res.PerfOverhead())
	}
}

func TestFrameTimePredictorUnder5Percent(t *testing.T) {
	dev := gpu.NewIntelGen9()
	trace := workload.Nenamark2(30, 7)
	res := RunFrameTimeExperiment(dev, trace, 60)
	if res.MAPE >= 0.05 {
		t.Fatalf("frame-time MAPE %.2f%%, paper reports <5%%", 100*res.MAPE)
	}
	if len(res.Points) < 1000 {
		t.Fatalf("only %d points recorded", len(res.Points))
	}
	// The run must actually exercise frequency changes (Fig. 2's premise).
	freqs := map[float64]bool{}
	for _, p := range res.Points {
		freqs[p.FreqMHz] = true
	}
	if len(freqs) < 2 {
		t.Fatal("governor never changed frequency during the Fig. 2 run")
	}
}

func TestSavingsHelper(t *testing.T) {
	if Savings(0, 5) != 0 {
		t.Fatal("zero baseline should give zero savings")
	}
	if got := Savings(10, 7.5); got != 0.25 {
		t.Fatalf("savings = %v", got)
	}
}
