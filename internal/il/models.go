// Package il implements the paper's imitation-learning pipeline: offline
// Oracle-supervised policy construction (Section IV-A1, refs [18][19]) and
// the model-guided online-IL methodology of Section IV-A3 (ref [13]) that
// adapts the policy to applications unseen at design time.
package il

import (
	"socrm/internal/control"
	"socrm/internal/rls"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// OnlineModels are the adaptive analytical power and performance models of
// Section III that supervise the online-IL policy. They have physical
// structure with learned coefficients:
//
//   - Per-cluster CPI models, linear in [1, missesPerInstr*f, branchMPKI]:
//     the intercept tracks the workload's base CPI (and adapts with the
//     forgetting factor when the application changes) while the slopes
//     converge to platform constants (memory latency, branch penalty).
//   - A chip power model, linear in physically motivated V^2*f terms per
//     cluster, leakage terms and external memory bandwidth.
//
// As the paper notes, the counters observed at the current configuration
// are reused to estimate the energy of *other* candidate configurations.
type OnlineModels struct {
	P         *soc.Platform
	CPIBig    *rls.RLS
	CPILittle *rls.RLS
	Power     *rls.RLS

	// AdaptInterceptOnly freezes the CPI slopes (platform constants such
	// as memory latency and branch penalty, identified at design time with
	// rich excitation) and adapts only the workload-dependent intercept at
	// runtime, with step interceptGain. WarmStart clears it for its
	// design-time sweep, the only place full-RLS CPI updates run: with the
	// narrow feature excitation of a settled controller they would let the
	// slopes drift, the instability STAFF (ref [30]) exists to stabilize.
	AdaptInterceptOnly bool
}

// interceptGain is the EW-average step of the intercept adaptation.
const interceptGain float64 = 0.7

// Model feature dimensions.
const (
	cpiDim   = 3
	powerDim = 10
)

// minPower floors a power prediction: a live chip never draws less.
const minPower = 0.05

// NewOnlineModels returns untrained models; call WarmStart to reproduce the
// paper's design-time bootstrapping.
func NewOnlineModels(p *soc.Platform) *OnlineModels {
	return &OnlineModels{
		P:         p,
		CPIBig:    rls.New(cpiDim, 0.95, 100),
		CPILittle: rls.New(cpiDim, 0.95, 100),
		Power:     rls.New(powerDim, 0.995, 100),
	}
}

// Clone returns an independently adaptable deep copy of the models. A
// serving process warm-starts one template at boot (the expensive
// design-time sweep) and clones it per governor session so concurrent
// sessions adapt to their own workloads without sharing estimator state.
func (m *OnlineModels) Clone() *OnlineModels {
	return &OnlineModels{
		P:                  m.P,
		CPIBig:             m.CPIBig.Clone(),
		CPILittle:          m.CPILittle.Clone(),
		Power:              m.Power.Clone(),
		AdaptInterceptOnly: m.AdaptInterceptOnly,
	}
}

// rates are the workload quantities directly observable from Table I
// counters.
type rates struct {
	missPerInstr float64 // L2 misses per instruction
	brMPKI       float64
	instr        float64
	threads      int
}

func ratesOf(st control.State) rates {
	instr := st.Counters.InstructionsRetired
	r := rates{instr: instr, threads: st.Threads}
	if instr > 0 {
		r.missPerInstr = st.Counters.L2Misses / instr
		r.brMPKI = 1000 * st.Counters.BranchMissPredPC *
			float64(activeCores(st)) / instr
	}
	return r
}

func activeCores(st control.State) int {
	ub, ul := soc.Placement(st.Threads, st.Config)
	return ub + ul
}

// cpiFeaturesInto fills buf (length cpiDim) with the CPI-model input and
// returns it; the allocation-free feature builder of the candidate loop.
func cpiFeaturesInto(buf []float64, missPerInstr, fGHz, brMPKI float64) []float64 {
	buf[0] = 1
	buf[1] = missPerInstr * fGHz
	buf[2] = brMPKI
	return buf
}

// predictCPI returns per-core CPI predictions for both clusters at the
// candidate frequencies. The feature vector lives on the stack.
func (m *OnlineModels) predictCPI(r rates, flGHz, fbGHz float64) (cpiBig, cpiLittle float64) {
	var buf [cpiDim]float64
	cpiBig = m.CPIBig.Predict(cpiFeaturesInto(buf[:], r.missPerInstr, fbGHz, r.brMPKI))
	cpiLittle = m.CPILittle.Predict(cpiFeaturesInto(buf[:], r.missPerInstr, flGHz, r.brMPKI))
	// Guard against early-training pathologies: CPI below a physical floor
	// would make a candidate look impossibly fast.
	if cpiBig < 0.3 {
		cpiBig = 0.3
	}
	if cpiLittle < 0.5 {
		cpiLittle = 0.5
	}
	return cpiBig, cpiLittle
}

// pairTerms are the parts of a candidate's prediction that depend only on
// its frequency pair, given the observed workload rates: the frequencies in
// GHz, the squared OPP voltages and V²f products, the CPI predictions and
// the memory-stall fractions. A candidate sweep derives them once per pair.
type pairTerms struct {
	fl, fb         float64
	vl2, vb2       float64
	vl2fl, vb2fb   float64
	cpiB, cpiL     float64
	stallB, stallL float64
}

// pairTermsOf derives the pair terms of c's frequency pair, whose
// frequencies are fl and fb GHz and whose CPI predictions are cpiB and cpiL.
func (m *OnlineModels) pairTermsOf(r rates, c soc.Config, fl, fb, cpiB, cpiL float64) pairTerms {
	lo := m.P.LittleOPPs[c.LittleFreqIdx]
	bo := m.P.BigOPPs[c.BigFreqIdx]
	pt := pairTerms{fl: fl, fb: fb, vl2: lo.Volt * lo.Volt, vb2: bo.Volt * bo.Volt, cpiB: cpiB, cpiL: cpiL}
	pt.vl2fl, pt.vb2fb = pt.vl2*fl, pt.vb2*fb
	pt.stallB = r.missPerInstr * m.P.MemLatencyNS * fb / cpiB
	pt.stallL = r.missPerInstr * m.P.MemLatencyNS * fl / cpiL
	return pt
}

// powerFeaturesInto builds the linear power-model input for configuration
// c, with ub big and ul little cores busy, into buf (length powerDim) and
// returns it. stallFrac terms let the model express reduced switching
// activity while memory stalled. predictionFrom dots the same terms with
// the model's weights without building the vector.
func powerFeaturesInto(buf []float64, pt *pairTerms, c soc.Config, ub, ul int, extBWGBs float64) []float64 {
	buf = buf[:powerDim]
	buf[0] = pt.vb2fb * float64(ub)
	buf[1] = pt.vb2fb * float64(ub) * pt.stallB
	buf[2] = pt.vb2fb * float64(c.NBig-ub)
	buf[3] = pt.vl2fl * float64(ul)
	buf[4] = pt.vl2fl * float64(ul) * pt.stallL
	buf[5] = pt.vl2fl * float64(c.NLittle-ul)
	buf[6] = pt.vb2 * float64(c.NBig)
	buf[7] = pt.vl2 * float64(c.NLittle)
	buf[8] = 1
	buf[9] = extBWGBs
	return buf
}

// Prediction is the models' estimate for executing the current workload
// phase under a candidate configuration.
type Prediction struct {
	Time   float64
	Power  float64
	Energy float64
}

// Predict estimates time, power and energy of running the observed
// workload phase under candidate configuration c, reusing the counters of
// the current configuration as the paper prescribes. Candidate loops that
// evaluate many configurations against one observed state should use an
// Evaluator instead, which derives the workload rates once and memoizes the
// CPI predictions per frequency pair.
func (m *OnlineModels) Predict(st control.State, c soc.Config) Prediction {
	r := ratesOf(st)
	c = m.P.Clamp(c)
	fl := m.P.LittleOPPs[c.LittleFreqIdx].FreqMHz / 1000
	fb := m.P.BigOPPs[c.BigFreqIdx].FreqMHz / 1000
	cpiB, cpiL := m.predictCPI(r, fl, fb)
	pt := m.pairTermsOf(r, c, fl, fb, cpiB, cpiL)
	return m.predictionFrom(&r, &pt, c)
}

// predictionFrom completes a prediction of c from already-derived rates and
// pair terms — the shared tail of Predict, Evaluator.Predict and
// Evaluator.Best. The power is the model's weights dotted with
// powerFeaturesInto's terms as they are formed, summed in index order from
// +0 as rls.RLS.Predict sums them, so no feature vector is zeroed or
// stored; TestPowerDotMatchesFeatures holds the two to the same result.
func (m *OnlineModels) predictionFrom(r *rates, pt *pairTerms, c soc.Config) Prediction {
	ub, ul := soc.Placement(r.threads, c)
	ips := float64(ub)*pt.fb*1e9/pt.cpiB + float64(ul)*pt.fl*1e9/pt.cpiL
	if ips <= 0 {
		return Prediction{Time: 1e9, Power: 1e9, Energy: 1e18}
	}
	t := r.instr / ips
	extBW := r.missPerInstr * r.instr * m.P.CacheLineB / t / 1e9
	w := (*[powerDim]float64)(m.Power.W)
	p := 0.0
	p += w[0] * (pt.vb2fb * float64(ub))
	p += w[1] * (pt.vb2fb * float64(ub) * pt.stallB)
	p += w[2] * (pt.vb2fb * float64(c.NBig-ub))
	p += w[3] * (pt.vl2fl * float64(ul))
	p += w[4] * (pt.vl2fl * float64(ul) * pt.stallL)
	p += w[5] * (pt.vl2fl * float64(c.NLittle-ul))
	p += w[6] * (pt.vb2 * float64(c.NBig))
	p += w[7] * (pt.vl2 * float64(c.NLittle))
	p += w[8] * 1
	p += w[9] * extBW
	if p < minPower {
		p = minPower
	}
	return Prediction{Time: t, Power: p, Energy: p * t}
}

// Update adapts the models with the outcome of an executed snippet: st must
// be the post-execution state (counters produced by running st.Config).
func (m *OnlineModels) Update(st control.State) {
	m.updateCPIFrom(st)
	m.updatePowerFrom(st)
}

// updateCPIFrom applies the per-cluster CPI updates; only placements that
// isolate a cluster update it, so the aggregate cycle counter attributes
// cleanly.
func (m *OnlineModels) updateCPIFrom(st control.State) {
	r := ratesOf(st)
	if r.instr <= 0 {
		return
	}
	c := st.Config
	fl := m.P.LittleOPPs[c.LittleFreqIdx].FreqMHz / 1000
	fb := m.P.BigOPPs[c.BigFreqIdx].FreqMHz / 1000
	ub, ul := soc.Placement(r.threads, c)
	cpiObs := st.Counters.CPUCycles / r.instr
	var buf [cpiDim]float64
	switch {
	case ub > 0 && ul == 0:
		m.updateCPI(m.CPIBig, cpiFeaturesInto(buf[:], r.missPerInstr, fb, r.brMPKI), cpiObs)
	case ul > 0 && ub == 0:
		m.updateCPI(m.CPILittle, cpiFeaturesInto(buf[:], r.missPerInstr, fl, r.brMPKI), cpiObs)
	}
}

// updatePowerFrom applies the power-model update. It uses the CPI models
// for the stall-activity features, so it should only run once those are
// reasonable (WarmStart orders the passes accordingly).
func (m *OnlineModels) updatePowerFrom(st control.State) {
	r := ratesOf(st)
	if r.instr <= 0 {
		return
	}
	c := st.Config
	fl := m.P.LittleOPPs[c.LittleFreqIdx].FreqMHz / 1000
	fb := m.P.BigOPPs[c.BigFreqIdx].FreqMHz / 1000
	ub, ul := soc.Placement(r.threads, c)
	cpiB, cpiL := m.predictCPI(r, fl, fb)
	t := st.Counters.CPUCycles / (float64(ub)*fb + float64(ul)*fl) / 1e9
	if t <= 0 {
		return
	}
	extBW := r.missPerInstr * r.instr * m.P.CacheLineB / t / 1e9
	pt := m.pairTermsOf(r, c, fl, fb, cpiB, cpiL)
	var buf [powerDim]float64
	m.Power.Update(powerFeaturesInto(buf[:], &pt, c, ub, ul, extBW), st.Counters.ChipPower)
}

// updateCPI applies either the full RLS update or the intercept-only
// adaptation, depending on AdaptInterceptOnly.
func (m *OnlineModels) updateCPI(model *rls.RLS, x []float64, target float64) {
	if !m.AdaptInterceptOnly {
		model.Update(x, target)
		return
	}
	// Residual after the frozen slope terms is the workload intercept.
	slopePart := 0.0
	for i := 1; i < len(x); i++ {
		slopePart += model.W[i] * x[i]
	}
	resid := target - slopePart
	model.W[0] += interceptGain * (resid - model.W[0])
}

// WarmStart reproduces the paper's offline model construction: it executes
// the design-time applications across a spread of configurations and feeds
// every outcome through Update. The power-model coefficients are platform
// constants, so they transfer to unseen applications; the CPI intercepts
// are workload state that the forgetting factor re-learns online.
func (m *OnlineModels) WarmStart(apps []workload.Application, configs []soc.Config) {
	m.AdaptInterceptOnly = false // rich design-time excitation: full RLS
	// Design-time identification runs without forgetting: with the
	// deployment forgetting factor the estimator would remember only the
	// last ~1/(1-lambda) samples of the sweep and the platform slopes
	// would be biased by whatever workload happened to come last.
	cpiBigLam, cpiLitLam, powLam := m.CPIBig.Lambda, m.CPILittle.Lambda, m.Power.Lambda
	m.CPIBig.Lambda, m.CPILittle.Lambda, m.Power.Lambda = 1, 1, 1
	// Two passes: the power model's activity features are derived from the
	// CPI models, so CPI is identified completely before any power sample
	// is taken (a power fit fed through untrained CPI models would keep
	// that corruption forever under lambda = 1).
	feed := func(sn workload.Snippet, c soc.Config, update func(control.State)) {
		res := m.P.Execute(sn, c)
		update(control.State{
			Counters: res.Counters,
			Derived:  res.Counters.Derived(),
			Config:   c,
			Threads:  sn.Threads,
		})
	}
	for _, update := range []func(control.State){m.updateCPIFrom, m.updatePowerFrom} {
		for _, app := range apps {
			if app.Suite == "calibration" {
				// The characterization sweep runs the full cross product
				// so every model feature (idle cores, both clusters, the
				// whole V-f range) is excited against every workload
				// point.
				for _, sn := range app.Snippets {
					for _, c := range configs {
						feed(sn, c, update)
					}
				}
				continue
			}
			for i, sn := range app.Snippets {
				feed(sn, configs[i%len(configs)], update)
			}
		}
	}
	m.CPIBig.Lambda, m.CPILittle.Lambda, m.Power.Lambda = cpiBigLam, cpiLitLam, powLam
	m.AdaptInterceptOnly = true // deployment: adapt the workload intercept
}

// WarmStartConfigs returns a spread of configurations that excites every
// power-model feature: both clusters, several frequencies and core counts.
func WarmStartConfigs(p *soc.Platform) []soc.Config {
	var out []soc.Config
	nl := len(p.LittleOPPs)
	nb := len(p.BigOPPs)
	for _, lf := range []int{0, nl / 2, nl - 1} {
		for _, bf := range []int{0, nb / 2, nb - 1} {
			for _, cores := range []struct{ l, b int }{{1, 0}, {4, 0}, {1, 1}, {1, 4}, {4, 4}, {2, 2}} {
				out = append(out, soc.Config{LittleFreqIdx: lf, BigFreqIdx: bf, NLittle: cores.l, NBig: cores.b})
			}
		}
	}
	return out
}
