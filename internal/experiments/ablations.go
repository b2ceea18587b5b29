package experiments

import (
	"socrm/internal/gpu"
	"socrm/internal/nmpc"
	"socrm/internal/workload"
)

// This file implements the ablation studies the README's results table
// lists (run them with `go test -run ^$ -bench Ablation .`) — design
// choices the paper discusses qualitatively (buffer sizing in Section
// IV-A3, forgetting stabilization in Section III-B, the candidate
// neighborhood of the online Oracle approximation, and the multi-rate
// cadence of Section IV-B) measured quantitatively on the simulator.

// BufferPoint is one row of the aggregation-buffer ablation.
type BufferPoint struct {
	BufferCap    int
	Bytes        int     // storage footprint (paper: <20 KB for ~100)
	ConvergeTime float64 // seconds to 95% Oracle agreement, -1 if never
	ConvergeFrac float64 // fraction of the sequence
	FinalAcc     float64
	EnergyRatio  float64 // run energy / Oracle energy
}

// BufferSizeAblation reruns the Figure 3 scenario with different
// aggregation-buffer capacities. Small buffers update often and converge
// fast but with noisier targets; large buffers smooth but delay adaptation.
func (s *Study) BufferSizeAblation(caps []int) []BufferPoint {
	seq := workload.NewSequence(append(append([]workload.Application{}, s.Cortex...), s.Parsec...)...)
	var orcE float64
	for _, app := range seq.Apps {
		orcE += s.OracleEnergy(app.Name)
	}
	// Every capacity is an independent deployment with its own controller;
	// the grid runs on the pool and points come back in cap order.
	return MapJobs(s.workers(), caps, func(_ int, cap int) BufferPoint {
		oil := s.FreshOnlineIL()
		oil.BufferCap = cap
		run, pts := s.accuracyRun(seq, oil, oil, 10)
		p := BufferPoint{
			BufferCap:    cap,
			Bytes:        oil.BufferBytes(),
			ConvergeTime: -1,
			EnergyRatio:  run.Energy / orcE,
		}
		for _, pt := range pts {
			if pt.Accuracy >= 95 {
				p.ConvergeTime = pt.Time
				p.ConvergeFrac = pt.Time / run.Time
				break
			}
		}
		if n := len(pts); n > 0 {
			p.FinalAcc = pts[n-1].Accuracy
		}
		return p
	})
}

// NeighborhoodPoint is one row of the candidate-radius ablation.
type NeighborhoodPoint struct {
	Radius       int
	Candidates   int // neighborhood size at an interior configuration
	ConvergeTime float64
	EnergyRatio  float64
}

// NeighborhoodAblation varies the local-search radius of the online Oracle
// approximation: radius 1 walks slowly toward regime changes, large radii
// evaluate more candidates per decision (overhead) for faster convergence.
func (s *Study) NeighborhoodAblation(radii []int) []NeighborhoodPoint {
	seq := workload.NewSequence(append(append([]workload.Application{}, s.Cortex...), s.Parsec...)...)
	var orcE float64
	for _, app := range seq.Apps {
		orcE += s.OracleEnergy(app.Name)
	}
	return MapJobs(s.workers(), radii, func(_ int, r int) NeighborhoodPoint {
		oil := s.FreshOnlineIL()
		oil.Radius = r
		run, pts := s.accuracyRun(seq, oil, oil, 10)
		side := 2*r + 1
		p := NeighborhoodPoint{
			Radius:       r,
			Candidates:   side * side * side * side,
			ConvergeTime: -1,
			EnergyRatio:  run.Energy / orcE,
		}
		for _, pt := range pts {
			if pt.Accuracy >= 95 {
				p.ConvergeTime = pt.Time
				break
			}
		}
		return p
	})
}

// ForgettingPoint is one row of the forgetting-factor ablation.
type ForgettingPoint struct {
	Name string
	MAPE float64
	WAPE float64
}

// ForgettingAblation compares the Figure 2 frame-time model under plain
// RLS with several fixed forgetting factors against STAFF. Fixed small
// lambdas diverge once the governor settles (poor excitation); lambda = 1
// cannot track frequency changes; STAFF adapts and stays stable —
// ref [30]'s motivation, measured. Each predictor variant gets its own
// device instance, so the five runs are independent pool jobs
// (workers: 0 = GOMAXPROCS, 1 = serial).
func ForgettingAblation(seed int64, workers int) []ForgettingPoint {
	trace := workload.Nenamark2(30, seed)
	// lambda < 0 marks the STAFF variant.
	lambdas := []float64{0.90, 0.96, 0.995, 1.0, -1}
	return MapJobs(workers, lambdas, func(_ int, lam float64) ForgettingPoint {
		dev := gpu.NewIntelGen9()
		if lam < 0 {
			res := nmpc.RunFrameTimeExperimentWith(dev, trace, 60, nmpc.NewFrameTimePredictor(dev))
			return ForgettingPoint{Name: "staff", MAPE: res.MAPE, WAPE: res.WAPE}
		}
		fp := nmpc.NewFrameTimePredictorRLS(dev, lam)
		res := nmpc.RunFrameTimeExperimentWith(dev, trace, 60, fp)
		return ForgettingPoint{
			Name: "rls-" + formatLambda(lam),
			MAPE: res.MAPE,
			WAPE: res.WAPE,
		}
	})
}

func formatLambda(l float64) string {
	switch {
	case l >= 1:
		return "1.000"
	case l >= 0.995:
		return "0.995"
	case l >= 0.96:
		return "0.960"
	default:
		return "0.900"
	}
}

// CadencePoint is one row of the multi-rate cadence ablation.
type CadencePoint struct {
	SlowPeriod int
	GPUSavings float64
	Reconfigs  int
	LateFrames int
}

// CadenceAblation varies the slow-rate period of the explicit NMPC
// controller on a moderately variable title: a too-eager slice cadence
// pays reconfiguration energy and risks deadline misses; a too-slow one
// leaves gating opportunity on the table. The device model and fitted
// surfaces are read-only during runs, so the period grid runs on the
// pool (workers: 0 = GOMAXPROCS, 1 = serial).
func CadenceAblation(seed int64, periods []int, workers int) ([]CadencePoint, error) {
	dev := gpu.NewIntelGen9()
	trace := workload.Fig5Traces(30, seed)[0] // 3DMarkIceStorm: scene-heavy
	budget := trace.Budget()
	start := gpu.State{FreqIdx: len(dev.OPPs) / 2, Slices: dev.MaxSlices}
	base := nmpc.RunTrace(dev, trace, nmpc.NewBaseline(dev), nmpc.RunOptions{Start: start})

	ref, err := nmpc.FitExplicitSurfaces(dev, budget)
	if err != nil {
		return nil, err
	}
	out := MapJobs(workers, periods, func(_ int, k int) CadencePoint {
		models := nmpc.NewGPUModels(dev)
		models.Warmup(budget)
		ctrl := &nmpc.Explicit{
			Dev: dev, Models: models,
			FreqSurf: ref.FreqSurf, SliceSurf: ref.SliceSurf,
			SlowPeriod: k, Margin: ref.Margin,
		}
		res := nmpc.RunTrace(dev, trace, ctrl, nmpc.RunOptions{Start: start})
		return CadencePoint{
			SlowPeriod: k,
			GPUSavings: nmpc.Savings(base.EnergyGPU, res.EnergyGPU),
			Reconfigs:  res.Reconfigs,
			LateFrames: res.LateFrames,
		}
	})
	return out, nil
}
