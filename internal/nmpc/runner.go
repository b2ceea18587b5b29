// Package nmpc implements Section IV-B: multi-variable power management of
// the GPU subsystem with a multi-rate nonlinear model-predictive controller
// and its low-overhead explicit approximation (refs [20][21][22]), plus the
// utilization-driven baseline governor they are compared against in
// Figure 5, and the online frame-time model of Figure 2 (refs [12][30]).
package nmpc

import (
	"socrm/internal/gpu"
	"socrm/internal/workload"
)

// FrameObs is everything a controller may see after a frame completes.
type FrameObs struct {
	Stats  gpu.FrameStats
	Budget float64 // seconds per frame
	Index  int
}

// Controller picks the GPU state for the next frame.
type Controller interface {
	Name() string
	Next(obs FrameObs) gpu.State
}

// TraceResult aggregates a controlled run over a graphics trace.
type TraceResult struct {
	Frames     int
	EnergyGPU  float64
	EnergyPKG  float64
	EnergyDRAM float64
	LateFrames int
	Reconfigs  int
}

// PerfOverhead returns the fraction of frames that missed their deadline —
// the paper reports 0.4% for explicit NMPC.
func (r TraceResult) PerfOverhead() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.LateFrames) / float64(r.Frames)
}

// RunOptions tunes a trace run.
type RunOptions struct {
	Start gpu.State
}

// RunTrace executes the trace frame by frame under the controller.
func RunTrace(dev *gpu.Device, trace workload.GraphicsTrace, ctrl Controller, opt RunOptions) TraceResult {
	budget := trace.Budget()
	state := dev.Clamp(opt.Start)
	prev := state
	var res TraceResult
	for i, f := range trace.Frames {
		stats := dev.RenderFrame(f, budget, state, prev)
		res.Frames++
		res.EnergyGPU += stats.EnergyGPU
		res.EnergyPKG += stats.EnergyPKG
		res.EnergyDRAM += stats.EnergyDRAM
		if stats.Late {
			res.LateFrames++
		}
		if stats.Reconfig {
			res.Reconfigs++
		}
		prev = state
		state = dev.Clamp(ctrl.Next(FrameObs{Stats: stats, Budget: budget, Index: i}))
	}
	return res
}

// Savings returns the relative energy savings of b versus a baseline, per
// Figure 5's definition: (baseline - b) / baseline.
func Savings(baseline, b float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - b) / baseline
}
