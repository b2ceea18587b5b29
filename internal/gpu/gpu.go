// Package gpu models the integrated GPU subsystem the paper's Section IV-B
// manages with explicit nonlinear MPC: a sliced render engine with two
// control knobs of very different cost — per-frame DVFS (fast, cheap) and
// slice power gating (slow, expensive) — plus package and DRAM power
// accounting for the Figure 5 GPU / PKG / PKG+DRAM breakdown.
package gpu

import (
	"math"

	"socrm/internal/workload"
)

// OPP is a GPU operating point.
type OPP struct {
	FreqMHz float64
	Volt    float64
}

// State is the GPU control state: an OPP index and an active slice count.
type State struct {
	FreqIdx int
	Slices  int
}

// FrameStats records what happened while rendering one frame; this is the
// counter set the online models and controllers observe.
type FrameStats struct {
	RenderTime float64 // seconds spent rendering
	BusyCycles float64 // slice-cycles consumed by the frame
	MemBytes   float64 // DRAM traffic generated
	Util       float64 // RenderTime / frame budget
	Late       bool    // missed the deadline
	EnergyGPU  float64 // joules, GPU only
	EnergyPKG  float64 // joules, package (GPU+CPU+uncore)
	EnergyDRAM float64 // joules, DRAM
	FreqMHz    float64 // frequency the frame ran at
	Slices     int     // slices the frame ran with
	Reconfig   bool    // a slice-count change happened before this frame
}

// Device is the calibrated iGPU model.
type Device struct {
	OPPs      []OPP
	MaxSlices int

	SliceAlpha    float64 // throughput ~ Slices^alpha (sublinear scaling)
	FixedOverhead float64 // per-frame driver/setup time, seconds
	CeffSliceNF   float64 // dynamic capacitance per slice
	LeakSliceWV2  float64 // leakage per active slice, W/V^2
	IdleGPUW      float64 // render-idle GPU floor power
	ReconfigTime  float64 // seconds lost when the slice count changes
	ReconfigJ     float64 // joules burned by a slice reconfiguration

	// Package and memory context for the PKG and PKG+DRAM rows of Fig. 5.
	CPUPkgW       float64 // CPU+uncore power while the game runs
	DRAMBackW     float64 // DRAM background power
	DRAMJPerGB    float64 // DRAM access energy per GB of traffic
	BytesPerCycle float64 // traffic per busy slice-cycle at MemRatio=1
	LeakTempCoeff float64 // leakage growth per Kelvin above TempRef
	TempRef       float64
	Temp          float64 // Celsius
}

// NewIntelGen9 returns a device loosely calibrated to an Intel Gen9-class
// integrated GPU: 300-1100 MHz in 50 MHz steps and up to three gateable
// slices.
func NewIntelGen9() *Device {
	d := &Device{
		MaxSlices:     3,
		SliceAlpha:    0.85,
		FixedOverhead: 0.8e-3,
		CeffSliceNF:   1.2,
		LeakSliceWV2:  0.45,
		IdleGPUW:      0.10,
		ReconfigTime:  0.5e-3,
		ReconfigJ:     5e-3,

		CPUPkgW:       1.3,
		DRAMBackW:     0.35,
		DRAMJPerGB:    0.38,
		BytesPerCycle: 4.0,
		LeakTempCoeff: 0.012,
		TempRef:       45,
		Temp:          45,
	}
	// The voltage floor below 500 MHz mirrors real integrated GPUs: the
	// retention voltage stops scaling down, so "wide and slow" operation
	// loses its V^2 advantage and slice gating becomes the winning move
	// for light scenes — the effect Figure 5 exploits.
	for f := 300.0; f <= 1100; f += 50 {
		v := 0.75
		if f > 500 {
			v = 0.75 + (f-500)/600*0.30
		}
		d.OPPs = append(d.OPPs, OPP{FreqMHz: f, Volt: v})
	}
	return d
}

// MaxState returns the maximum-capacity state.
func (d *Device) MaxState() State { return State{FreqIdx: len(d.OPPs) - 1, Slices: d.MaxSlices} }

// Clamp snaps s to a valid state.
func (d *Device) Clamp(s State) State {
	if s.FreqIdx < 0 {
		s.FreqIdx = 0
	}
	if s.FreqIdx >= len(d.OPPs) {
		s.FreqIdx = len(d.OPPs) - 1
	}
	if s.Slices < 1 {
		s.Slices = 1
	}
	if s.Slices > d.MaxSlices {
		s.Slices = d.MaxSlices
	}
	return s
}

// sliceScale returns the throughput multiplier of n slices.
func (d *Device) sliceScale(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Pow(float64(n), d.SliceAlpha)
}

// Capacity returns slice-cycles per second delivered by state s.
func (d *Device) Capacity(s State) float64 {
	s = d.Clamp(s)
	return d.OPPs[s.FreqIdx].FreqMHz * 1e6 * d.sliceScale(s.Slices)
}

// MaxCapacity is Capacity(MaxState).
func (d *Device) MaxCapacity() float64 { return d.Capacity(d.MaxState()) }

// FrameWork converts a trace frame's Load (fraction of budget at max
// configuration) into absolute slice-cycles of render work.
func (d *Device) FrameWork(f workload.Frame, budget float64) float64 {
	usable := budget - d.FixedOverhead
	if usable < 0 {
		usable = 0
	}
	return f.Load * usable * d.MaxCapacity()
}

// RenderTime predicts how long a frame with the given work takes in state s.
func (d *Device) RenderTime(work float64, s State) float64 {
	return work/d.Capacity(s) + d.FixedOverhead
}

// Power returns the GPU power draw while rendering in state s.
func (d *Device) Power(s State) float64 {
	s = d.Clamp(s)
	o := d.OPPs[s.FreqIdx]
	fGHz := o.FreqMHz / 1000
	dyn := float64(s.Slices) * d.CeffSliceNF * o.Volt * o.Volt * fGHz
	leak := float64(s.Slices) * d.LeakSliceWV2 * o.Volt * o.Volt * d.tempFac()
	return dyn + leak + d.IdleGPUW
}

// IdlePower returns the GPU power draw while waiting for the next frame with
// the slices of state s still powered (they leak even when idle — the very
// cost slice gating removes).
func (d *Device) IdlePower(s State) float64 {
	s = d.Clamp(s)
	o := d.OPPs[s.FreqIdx]
	leak := float64(s.Slices) * d.LeakSliceWV2 * o.Volt * o.Volt * d.tempFac()
	return leak + d.IdleGPUW
}

func (d *Device) tempFac() float64 {
	f := 1 + d.LeakTempCoeff*(d.Temp-d.TempRef)
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// RenderFrame executes one frame of the trace in state s and returns the
// full accounting. prev is the state of the previous frame; a slice-count
// change pays the reconfiguration penalty (the "slow knob" cost that forces
// the paper's multi-rate controller structure).
func (d *Device) RenderFrame(f workload.Frame, budget float64, s, prev State) FrameStats {
	s = d.Clamp(s)
	work := d.FrameWork(f, budget)
	t := d.RenderTime(work, s)

	reconfig := s.Slices != prev.Slices
	overhead := 0.0
	extraJ := 0.0
	if reconfig {
		overhead = d.ReconfigTime
		extraJ = d.ReconfigJ
	}
	total := t + overhead
	late := total > budget

	idle := budget - total
	if idle < 0 {
		idle = 0
	}
	eGPU := d.Power(s)*t + d.IdlePower(s)*idle + extraJ

	memBytes := work * f.MemRatio * d.BytesPerCycle / d.sliceScale(s.Slices)
	eDRAM := d.DRAMBackW*budget + d.DRAMJPerGB*memBytes/1e9
	ePKG := eGPU + d.CPUPkgW*budget

	return FrameStats{
		RenderTime: t,
		BusyCycles: work,
		MemBytes:   memBytes,
		Util:       total / budget,
		Late:       late,
		EnergyGPU:  eGPU,
		EnergyPKG:  ePKG,
		EnergyDRAM: eDRAM,
		FreqMHz:    d.OPPs[s.FreqIdx].FreqMHz,
		Slices:     s.Slices,
		Reconfig:   reconfig,
	}
}
