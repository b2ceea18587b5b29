// Package governor implements the heuristic frequency governors the paper's
// introduction cites as the state of practice (ref [4], the Linux ondemand
// and interactive governors), plus the trivial performance and powersave
// policies. They plug into the same control loop as the learned
// policies and serve as additional baselines in the extended benchmarks.
package governor

import (
	"socrm/internal/control"
	"socrm/internal/soc"
)

// busyness is the governor's utilization proxy. The classic governors act
// on CPU idle time; in a snippet-driven run the analogue is how far the
// cluster is from retiring at its no-stall rate, so we blend core
// occupancy with the IPC headroom.
func busyness(st control.State) float64 {
	occ := st.Derived.BigUtil
	if occ == 0 {
		occ = st.Derived.LittleUtil
	}
	ipcLoad := st.Derived.IPC / 2 // 2 IPC ~ fully fed pipeline
	if ipcLoad > 1 {
		ipcLoad = 1
	}
	b := 0.5*occ + 0.5*(1-ipcLoad) // stalled pipelines look busy to ondemand
	if b > 1 {
		b = 1
	}
	return b
}

// upThreshold is the Linux ondemand governor's default up-threshold.
const upThreshold = 0.8

// Ondemand jumps to maximum frequency above the up-threshold and scales
// proportionally below it, as the Linux governor does (ref [4]).
type Ondemand struct {
	P *soc.Platform
}

// NewOndemand returns the governor with the Linux default threshold.
func NewOndemand(p *soc.Platform) *Ondemand {
	return &Ondemand{P: p}
}

// Name implements control.Decider.
func (g *Ondemand) Name() string { return "ondemand" }

// Decide implements control.Decider. Core counts are left at maximum: the
// stock governor only manages frequency.
func (g *Ondemand) Decide(st control.State) soc.Config {
	b := busyness(st)
	nb := len(g.P.BigOPPs)
	nl := len(g.P.LittleOPPs)
	cfg := soc.Config{NLittle: 4, NBig: 4}
	if b >= upThreshold {
		cfg.BigFreqIdx = nb - 1
		cfg.LittleFreqIdx = nl - 1
	} else {
		cfg.BigFreqIdx = int(b / upThreshold * float64(nb-1))
		cfg.LittleFreqIdx = int(b / upThreshold * float64(nl-1))
	}
	return g.P.Clamp(cfg)
}

// The interactive governor's typical Android tuning: at hispeedLoad or
// above it jumps to the hispeed frequency, and below half load it steps
// down stepDown indices per decision.
const (
	hispeedLoad = 0.85
	stepDown    = 1
)

// Interactive ramps quickly on load and decays slowly, approximating the
// Android interactive governor's hispeed behaviour.
type Interactive struct {
	P           *soc.Platform
	cur         soc.Config
	initialized bool
}

// NewInteractive returns the governor with typical Android tuning.
func NewInteractive(p *soc.Platform) *Interactive {
	return &Interactive{P: p}
}

// hispeedIdx is the big-cluster frequency index jumped to on hispeed load,
// three quarters of the way up the platform's table.
func (g *Interactive) hispeedIdx() int { return (len(g.P.BigOPPs) - 1) * 3 / 4 }

// Name implements control.Decider.
func (g *Interactive) Name() string { return "interactive" }

// Decide implements control.Decider.
func (g *Interactive) Decide(st control.State) soc.Config {
	if !g.initialized {
		g.cur = st.Config
		g.cur.NBig, g.cur.NLittle = 4, 4
		g.initialized = true
	}
	b := busyness(st)
	switch {
	case b >= hispeedLoad:
		if hi := g.hispeedIdx(); g.cur.BigFreqIdx < hi {
			g.cur.BigFreqIdx = hi
		} else {
			g.cur.BigFreqIdx++
		}
		g.cur.LittleFreqIdx++
	case b < 0.5:
		g.cur.BigFreqIdx -= stepDown
		g.cur.LittleFreqIdx -= stepDown
	}
	g.cur = g.P.Clamp(g.cur)
	return g.cur
}

// State exposes the governor's ramp state (the held configuration and
// whether it has latched onto a first observation) for session migration.
func (g *Interactive) State() (cur soc.Config, initialized bool) {
	return g.cur, g.initialized
}

// SetState restores ramp state captured by State on another instance, so a
// migrated governor continues the exact ramp trajectory.
func (g *Interactive) SetState(cur soc.Config, initialized bool) {
	g.cur, g.initialized = cur, initialized
}

// Performance pins everything at maximum.
type Performance struct{ P *soc.Platform }

// Name implements control.Decider.
func (g Performance) Name() string { return "performance" }

// Decide implements control.Decider.
func (g Performance) Decide(control.State) soc.Config { return g.P.MaxPerfConfig() }

// Powersave pins everything at minimum.
type Powersave struct{ P *soc.Platform }

// Name implements control.Decider.
func (g Powersave) Name() string { return "powersave" }

// Decide implements control.Decider.
func (g Powersave) Decide(control.State) soc.Config { return g.P.MinPowerConfig() }
