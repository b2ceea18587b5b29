package experiments

import (
	"fmt"

	"socrm/internal/gpu"
	"socrm/internal/nmpc"
	"socrm/internal/workload"
)

// Fig5Row is one title of Figure 5: energy savings of explicit NMPC over
// the baseline governor for the GPU, the package, and package+DRAM.
type Fig5Row struct {
	App        string
	GPUSavings float64 // fraction, e.g. 0.25 = 25%
	PKGSavings float64
	PKGDRAMSav float64
}

// Fig5Result is the full Figure 5 reproduction.
type Fig5Result struct {
	Rows    []Fig5Row
	Average Fig5Row
	// PerfOverhead is the deadline-miss fraction of the explicit NMPC runs
	// (the paper reports 0.4%).
	PerfOverhead float64
}

// Fig5Options tunes the experiment.
type Fig5Options struct {
	Seed int64
	Temp float64 // platform temperature; the paper notes savings hold across thermal conditions
	// Workers bounds the per-trace worker pool: 0 = GOMAXPROCS, 1 = serial.
	Workers int
}

// fig5FPS is the frame rate every Figure 5 title targets.
const fig5FPS = 30

// DefaultFig5Options matches the reproduction defaults.
func DefaultFig5Options() Fig5Options { return Fig5Options{Seed: 42, Temp: 45} }

// Fig5 runs every graphics trace under the baseline governor and under
// explicit NMPC, and reports the three energy-savings rows of Figure 5.
// The explicit controller's surfaces are fit once offline from warmed
// models, then each trace gets a fresh controller instance (fresh online
// model state), as a deployment would.
func Fig5(opt Fig5Options) (Fig5Result, error) {
	dev := gpu.NewIntelGen9()
	dev.Temp = opt.Temp
	traces := workload.Fig5Traces(fig5FPS, opt.Seed)
	budget := traces[0].Budget()

	// Offline phase: warm sensitivity models, sample the NMPC surface. Only
	// the fitted surfaces are used below; every trace gets fresh models.
	explicitRef, err := nmpc.FitExplicitSurfaces(dev, budget)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("experiments: fitting explicit NMPC: %w", err)
	}

	var res Fig5Result
	var late, frames int
	start := gpu.State{FreqIdx: len(dev.OPPs) / 2, Slices: dev.MaxSlices}
	// Each title runs baseline + NMPC against the read-only device model
	// with a fresh controller (fresh online model state), so the ten
	// titles are independent pool jobs; rows come back in trace order.
	type traceOut struct {
		row          Fig5Row
		late, frames int
	}
	outs := MapJobs(opt.Workers, traces, func(_ int, tr workload.GraphicsTrace) traceOut {
		base := nmpc.RunTrace(dev, tr, nmpc.NewBaseline(dev), nmpc.RunOptions{Start: start})

		models := nmpc.NewGPUModels(dev)
		models.Warmup(budget)
		ctrl := &nmpc.Explicit{
			Dev: dev, Models: models,
			FreqSurf: explicitRef.FreqSurf, SliceSurf: explicitRef.SliceSurf,
			SlowPeriod: explicitRef.SlowPeriod,
		}
		en := nmpc.RunTrace(dev, tr, ctrl, nmpc.RunOptions{Start: start})

		return traceOut{
			row: Fig5Row{
				App:        tr.Name,
				GPUSavings: nmpc.Savings(base.EnergyGPU, en.EnergyGPU),
				PKGSavings: nmpc.Savings(base.EnergyPKG, en.EnergyPKG),
				PKGDRAMSav: nmpc.Savings(base.EnergyPKG+base.EnergyDRAM, en.EnergyPKG+en.EnergyDRAM),
			},
			late:   en.LateFrames,
			frames: en.Frames,
		}
	})
	for _, o := range outs {
		res.Rows = append(res.Rows, o.row)
		late += o.late
		frames += o.frames
	}
	for _, r := range res.Rows {
		res.Average.GPUSavings += r.GPUSavings
		res.Average.PKGSavings += r.PKGSavings
		res.Average.PKGDRAMSav += r.PKGDRAMSav
	}
	n := float64(len(res.Rows))
	res.Average = Fig5Row{
		App:        "Average",
		GPUSavings: res.Average.GPUSavings / n,
		PKGSavings: res.Average.PKGSavings / n,
		PKGDRAMSav: res.Average.PKGDRAMSav / n,
	}
	if frames > 0 {
		res.PerfOverhead = float64(late) / float64(frames)
	}
	return res, nil
}
