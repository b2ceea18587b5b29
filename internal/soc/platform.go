// Package soc models the heterogeneous big.LITTLE platform the paper
// evaluates on (Samsung Exynos 5422 in the Odroid-XU3). It is a
// cycle-approximate analytical simulator: a workload snippet's
// microarchitectural characteristics plus a hardware configuration map to
// execution time, energy and the Table I performance counters.
//
// The configuration space matches the paper's claim of 4940 unique control
// settings for the Exynos 5422: 13 little-cluster frequencies x 19
// big-cluster frequencies x 4 little-core counts x 5 big-core counts.
package soc

import (
	"fmt"

	"socrm/internal/counters"
	"socrm/internal/workload"
)

// OPP is an operating performance point: a frequency and its voltage.
type OPP struct {
	FreqMHz float64
	Volt    float64
}

// Config selects one hardware configuration of the platform.
type Config struct {
	LittleFreqIdx int // index into Platform.LittleOPPs
	BigFreqIdx    int // index into Platform.BigOPPs
	NLittle       int // active little cores, MinNLittle..MaxNLittle
	NBig          int // active big cores, MinNBig..MaxNBig
}

// Core-count knob domains. One little core must stay online for the OS,
// which is why MinNLittle is 1. Everything that clamps, enumerates or
// range-checks the core knobs derives from these four constants.
const (
	MinNLittle = 1
	MaxNLittle = 4
	MinNBig    = 0
	MaxNBig    = 4
)

// String renders the configuration compactly, e.g. "L1000/B1600 1L+4B".
func (c Config) String() string {
	return fmt.Sprintf("L%d/B%d %dL+%dB", c.LittleFreqIdx, c.BigFreqIdx, c.NLittle, c.NBig)
}

// Result is the outcome of executing one snippet under one configuration.
type Result struct {
	Time     float64 // seconds
	Energy   float64 // joules
	AvgPower float64 // watts
	Counters counters.Snapshot
}

// Platform holds the calibrated parameters of the simulated SoC.
type Platform struct {
	LittleOPPs []OPP
	BigOPPs    []OPP

	// Microarchitecture.
	LittleCPIFactor  float64 // little-core CPI multiplier over big-core base
	MemLatencyNS     float64 // DRAM round trip seen by an L2 miss
	BrPenaltyBig     float64 // branch misprediction penalty, cycles
	BrPenaltyLittle  float64
	StallPowerFactor float64 // dynamic power floor while memory stalled

	// Power model.
	CeffBigNF      float64 // effective switched capacitance per big core, nF
	CeffLittleNF   float64
	IdleCoreFrac   float64 // dynamic power of an active-but-idle core
	LeakBigWV2     float64 // big-core leakage coefficient, W per V^2
	LeakLittleWV2  float64
	BaseLeakW      float64 // always-on chip leakage (uncore, memories)
	LeakTempCoeff  float64 // leakage growth per Kelvin above TempRef
	TempRef        float64 // Celsius
	MemBWWattPerGB float64 // uncore+DRAM-controller power per GB/s of traffic
	CacheLineB     float64

	// Runtime state.
	Temp float64 // Celsius, settable by a thermal loop
}

// xu3StepMHz is the XU3's DVFS step on both clusters.
const xu3StepMHz = 100

// NewXU3 returns the platform calibrated to resemble the Exynos 5422: four
// Cortex-A7 little cores (200-1400 MHz) and four Cortex-A15 big cores
// (200-2000 MHz) in 100 MHz steps — the paper's 4940-point config space.
func NewXU3() *Platform {
	p := &Platform{
		LittleCPIFactor:  1.9,
		MemLatencyNS:     80,
		BrPenaltyBig:     14,
		BrPenaltyLittle:  8,
		StallPowerFactor: 0.35,

		CeffBigNF:      0.65,
		CeffLittleNF:   0.15,
		IdleCoreFrac:   0.08,
		LeakBigWV2:     0.16,
		LeakLittleWV2:  0.035,
		BaseLeakW:      0.45,
		LeakTempCoeff:  0.012,
		TempRef:        45,
		MemBWWattPerGB: 0.11,
		CacheLineB:     64,

		Temp: 45,
	}
	for f := 200.0; f <= 1400; f += xu3StepMHz {
		p.LittleOPPs = append(p.LittleOPPs, OPP{FreqMHz: f, Volt: 0.90 + (f-200)/1200*0.30})
	}
	for f := 200.0; f <= 2000; f += xu3StepMHz {
		p.BigOPPs = append(p.BigOPPs, OPP{FreqMHz: f, Volt: 0.90 + (f-200)/1800*0.45})
	}
	return p
}

// NumConfigs returns the size of the configuration space (4940 for the XU3).
func (p *Platform) NumConfigs() int {
	return len(p.LittleOPPs) * len(p.BigOPPs) * 4 * 5
}

// Configs enumerates every valid configuration.
func (p *Platform) Configs() []Config {
	out := make([]Config, 0, p.NumConfigs())
	for lf := range p.LittleOPPs {
		for bf := range p.BigOPPs {
			for nl := 1; nl <= 4; nl++ {
				for nb := 0; nb <= 4; nb++ {
					out = append(out, Config{lf, bf, nl, nb})
				}
			}
		}
	}
	return out
}

// Valid reports whether c indexes existing OPPs and legal core counts.
func (p *Platform) Valid(c Config) bool {
	return c.LittleFreqIdx >= 0 && c.LittleFreqIdx < len(p.LittleOPPs) &&
		c.BigFreqIdx >= 0 && c.BigFreqIdx < len(p.BigOPPs) &&
		c.NLittle >= MinNLittle && c.NLittle <= MaxNLittle &&
		c.NBig >= MinNBig && c.NBig <= MaxNBig
}

// Clamp returns the nearest valid configuration to c.
func (p *Platform) Clamp(c Config) Config {
	c.LittleFreqIdx = clampInt(c.LittleFreqIdx, 0, len(p.LittleOPPs)-1)
	c.BigFreqIdx = clampInt(c.BigFreqIdx, 0, len(p.BigOPPs)-1)
	c.NLittle = clampInt(c.NLittle, MinNLittle, MaxNLittle)
	c.NBig = clampInt(c.NBig, MinNBig, MaxNBig)
	return c
}

// Neighborhood returns all valid configurations within the given L-inf
// radius of c in knob space, including c itself. The online-IL controller
// evaluates exactly this candidate set before every decision (Section
// IV-A3).
func (p *Platform) Neighborhood(c Config, radius int) []Config {
	return p.AppendNeighborhood(nil, c, radius)
}

// NeighborhoodBounds returns the corners of the neighborhood of c: each
// knob of lo and hi is that knob of c minus and plus radius, clamped to its
// valid range. The neighborhood is every configuration whose knobs all lie
// within [lo, hi].
func (p *Platform) NeighborhoodBounds(c Config, radius int) (lo, hi Config) {
	return p.Clamp(Config{c.LittleFreqIdx - radius, c.BigFreqIdx - radius, c.NLittle - radius, c.NBig - radius}),
		p.Clamp(Config{c.LittleFreqIdx + radius, c.BigFreqIdx + radius, c.NLittle + radius, c.NBig + radius})
}

// AppendNeighborhood appends the neighborhood of c to dst and returns the
// extended slice — the allocation-free form of Neighborhood. The candidate
// set is the cross product of the four NeighborhoodBounds ranges,
// enumerated directly: each knob value appears exactly once per range, so
// the result is duplicate-free by construction and in the same order the
// clamp-and-dedup enumeration produced historically. The online-IL
// decision (il.Evaluator.Best) sweeps the same ranges in the same order
// without materializing them; this list is the reference its tests
// compare it against.
func (p *Platform) AppendNeighborhood(dst []Config, c Config, radius int) []Config {
	lo, hi := p.NeighborhoodBounds(c, radius)
	for lf := lo.LittleFreqIdx; lf <= hi.LittleFreqIdx; lf++ {
		for bf := lo.BigFreqIdx; bf <= hi.BigFreqIdx; bf++ {
			for nl := lo.NLittle; nl <= hi.NLittle; nl++ {
				for nb := lo.NBig; nb <= hi.NBig; nb++ {
					dst = append(dst, Config{lf, bf, nl, nb})
				}
			}
		}
	}
	return dst
}

// InNeighborhood reports whether n is a member of the candidate set
// AppendNeighborhood(c, radius) enumerates. n must be a valid configuration.
func (p *Platform) InNeighborhood(c, n Config, radius int) bool {
	lo, hi := p.NeighborhoodBounds(c, radius)
	return n.LittleFreqIdx >= lo.LittleFreqIdx && n.LittleFreqIdx <= hi.LittleFreqIdx &&
		n.BigFreqIdx >= lo.BigFreqIdx && n.BigFreqIdx <= hi.BigFreqIdx &&
		n.NLittle >= lo.NLittle && n.NLittle <= hi.NLittle &&
		n.NBig >= lo.NBig && n.NBig <= hi.NBig
}

// NumConfigFeatures is the number of values AppendFeatures appends.
const NumConfigFeatures = 4

// AppendFeatures appends the normalized policy inputs of c, each in [0,1],
// to dst and returns the extended slice.
func (p *Platform) AppendFeatures(dst []float64, c Config) []float64 {
	return append(dst,
		float64(c.LittleFreqIdx)/float64(len(p.LittleOPPs)-1),
		float64(c.BigFreqIdx)/float64(len(p.BigOPPs)-1),
		(float64(c.NLittle)-1)/3,
		float64(c.NBig)/4,
	)
}

// FromFeatures inverts AppendFeatures, snapping to the nearest valid knob values.
func (p *Platform) FromFeatures(f []float64) Config {
	if len(f) != 4 {
		panic("soc: config features must have length 4")
	}
	return p.Clamp(Config{
		LittleFreqIdx: int(f[0]*float64(len(p.LittleOPPs)-1) + 0.5),
		BigFreqIdx:    int(f[1]*float64(len(p.BigOPPs)-1) + 0.5),
		NLittle:       int(f[2]*3+0.5) + 1,
		NBig:          int(f[3]*4 + 0.5),
	})
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxPerfConfig returns the all-cores-max-frequency configuration.
func (p *Platform) MaxPerfConfig() Config {
	return Config{LittleFreqIdx: len(p.LittleOPPs) - 1, BigFreqIdx: len(p.BigOPPs) - 1, NLittle: 4, NBig: 4}
}

// MinPowerConfig returns the single-little-core minimum-frequency
// configuration.
func (p *Platform) MinPowerConfig() Config {
	return Config{LittleFreqIdx: 0, BigFreqIdx: 0, NLittle: 1, NBig: 0}
}

// Execute runs one snippet under configuration c and returns time, energy
// and the synthesized Table I counters.
//
// The performance model is a memory-wall CPI decomposition: stall cycles per
// instruction grow linearly with core frequency (a fixed-nanosecond DRAM
// latency costs more cycles at higher f), which is what makes the
// energy-optimal frequency workload dependent.
func (p *Platform) Execute(s workload.Snippet, c Config) Result {
	if !p.Valid(c) {
		c = p.Clamp(c)
	}
	lo := p.LittleOPPs[c.LittleFreqIdx]
	bo := p.BigOPPs[c.BigFreqIdx]
	fl := lo.FreqMHz / 1000 // GHz
	fb := bo.FreqMHz / 1000

	// Per-core CPI.
	memPerInstr := s.MemIntensity * s.L2MissRate // L2 misses per instruction
	stallBig := memPerInstr * p.MemLatencyNS * fb
	stallLittle := memPerInstr * p.MemLatencyNS * fl
	brBig := s.BranchMPKI / 1000 * p.BrPenaltyBig
	brLittle := s.BranchMPKI / 1000 * p.BrPenaltyLittle
	cpiBigBase := s.BaseCPI / s.ILPBigBoost
	cpiLittleBase := s.BaseCPI * p.LittleCPIFactor
	cpiBig := cpiBigBase + brBig + stallBig
	cpiLittle := cpiLittleBase + brLittle + stallLittle

	ipsBig := fb * 1e9 / cpiBig // instructions/second per big core
	ipsLittle := fl * 1e9 / cpiLittle

	usedBig, usedLittle := Placement(s.Threads, c)
	totalIPS := float64(usedBig)*ipsBig + float64(usedLittle)*ipsLittle
	t := s.Instructions / totalIPS

	// Activity factor: a memory-stalled pipeline burns less dynamic power
	// than a retiring one.
	actBig := p.StallPowerFactor + (1-p.StallPowerFactor)*(cpiBigBase+brBig)/cpiBig
	actLittle := p.StallPowerFactor + (1-p.StallPowerFactor)*(cpiLittleBase+brLittle)/cpiLittle

	// Dynamic power: busy cores at activity level, active idle cores at the
	// clock-gated floor.
	pBigCore := p.CeffBigNF * bo.Volt * bo.Volt * fb // W at full activity
	pLittleCore := p.CeffLittleNF * lo.Volt * lo.Volt * fl
	dyn := float64(usedBig)*pBigCore*actBig +
		float64(c.NBig-usedBig)*pBigCore*p.IdleCoreFrac +
		float64(usedLittle)*pLittleCore*actLittle +
		float64(c.NLittle-usedLittle)*pLittleCore*p.IdleCoreFrac

	// Leakage grows with voltage squared and temperature.
	tempFac := 1 + p.LeakTempCoeff*(p.Temp-p.TempRef)
	if tempFac < 0.5 {
		tempFac = 0.5
	}
	leak := p.BaseLeakW
	leak += float64(c.NBig) * p.LeakBigWV2 * bo.Volt * bo.Volt
	leak += float64(c.NLittle) * p.LeakLittleWV2 * lo.Volt * lo.Volt
	leak *= tempFac

	// Uncore/DRAM-controller power proportional to external bandwidth.
	l2Misses := s.Instructions * memPerInstr
	extBytes := l2Misses * p.CacheLineB
	extBWGBs := extBytes / t / 1e9
	memPower := p.MemBWWattPerGB * extBWGBs

	power := dyn + leak + memPower
	energy := power * t

	cyc := t * (float64(usedBig)*fb + float64(usedLittle)*fl) * 1e9
	snap := counters.Snapshot{
		InstructionsRetired: s.Instructions,
		CPUCycles:           cyc,
		BranchMissPredPC:    s.Instructions * s.BranchMPKI / 1000 / float64(usedBig+usedLittle),
		L2Misses:            l2Misses,
		DataMemAccess:       s.Instructions * s.MemIntensity,
		NoncacheExtMemReq:   l2Misses * 0.3,
		LittleUtil:          utilOf(usedLittle, c.NLittle),
		BigUtil:             utilOf(usedBig, c.NBig),
		ChipPower:           power,
	}
	return Result{Time: t, Energy: energy, AvgPower: power, Counters: snap}
}

// Placement models the HMP scheduler: runnable threads fill big cores
// first, spilling the remainder onto little cores; at least one little-core
// slot is always available (the OS keeps one online). It is exported so
// that the online performance models can reason about candidate
// configurations the same way the platform schedules them.
func Placement(threads int, c Config) (usedBig, usedLittle int) {
	usedBig = minInt(threads, c.NBig)
	usedLittle = minInt(threads-usedBig, c.NLittle)
	if usedBig == 0 && usedLittle == 0 {
		usedLittle = 1
	}
	return usedBig, usedLittle
}

func utilOf(used, active int) float64 {
	if active == 0 {
		return 0
	}
	return float64(used) / float64(active)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
