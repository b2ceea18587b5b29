package il

import (
	"socrm/internal/control"
	"socrm/internal/soc"
)

// Evaluator is the allocation-free candidate-evaluation engine of the
// online-IL decision hot path. OnlineModels.Predict re-derives the workload
// rates from the observed counters and re-runs both CPI models for every
// candidate, but within one decision the rates are invariant and the CPI
// predictions depend only on the candidate's (bigFreqIdx, littleFreqIdx)
// pair — there are only len(BigOPPs) x len(LittleOPPs) distinct pairs
// against hundreds of neighborhood candidates (the core-count knobs alone
// contribute a factor of up to 20). An Evaluator hoists the rates out of
// the loop at Begin and memoizes the CPI pairs across Predict calls.
//
// Predictions are bit-identical to OnlineModels.Predict on the same state:
// both run the same arithmetic, the memo only skips recomputing a pure
// function of the pair.
//
// An Evaluator is scratch state for a single decision loop: not
// goroutine-safe, and stale after its OnlineModels adapt (call Begin again
// for the next decision).
type Evaluator struct {
	m *OnlineModels
	r rates

	// CPI memo, indexed by bigFreqIdx*len(LittleOPPs)+littleFreqIdx.
	// Entries are valid when stamp[idx] == epoch, so re-keying the
	// evaluator to a new state is O(1) instead of a table clear.
	epoch      uint32
	stamp      []uint32
	cpiB, cpiL []float64
}

// NewEvaluator returns an evaluator bound to the models; call Begin before
// the first Predict.
func (m *OnlineModels) NewEvaluator() *Evaluator {
	return &Evaluator{m: m}
}

// Begin keys the evaluator to a newly observed state: the workload rates
// are derived once and all memoized CPI predictions are invalidated (the
// models may have adapted since the previous decision).
func (e *Evaluator) Begin(st control.State) {
	e.r = ratesOf(st)
	n := len(e.m.P.BigOPPs) * len(e.m.P.LittleOPPs)
	if len(e.stamp) != n {
		e.stamp = make([]uint32, n)
		e.cpiB = make([]float64, n)
		e.cpiL = make([]float64, n)
		e.epoch = 0
	}
	e.epoch++
	if e.epoch == 0 { // epoch wrapped: stale stamps could collide, clear them
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.epoch = 1
	}
}

// Predict estimates time, power and energy of running the workload phase
// observed at Begin under candidate configuration c. It allocates nothing.
func (e *Evaluator) Predict(c soc.Config) Prediction {
	c = e.m.P.Clamp(c)
	pt := e.pair(c)
	return e.m.predictionFrom(&e.r, &pt, c)
}

// pair returns the terms of c's frequency pair, with the CPI predictions
// memoized.
func (e *Evaluator) pair(c soc.Config) pairTerms {
	m := e.m
	fl := m.P.LittleOPPs[c.LittleFreqIdx].FreqMHz / 1000
	fb := m.P.BigOPPs[c.BigFreqIdx].FreqMHz / 1000
	idx := c.BigFreqIdx*len(m.P.LittleOPPs) + c.LittleFreqIdx
	if e.stamp[idx] != e.epoch {
		cpiB, cpiL := m.predictCPI(e.r, fl, fb)
		e.stamp[idx], e.cpiB[idx], e.cpiL[idx] = e.epoch, cpiB, cpiL
	}
	return m.pairTermsOf(e.r, c, fl, fb, e.cpiB[idx], e.cpiL[idx])
}

// Best returns the candidate of soc.Platform.AppendNeighborhood(cur,
// radius) with the lowest predicted energy, and that energy. It visits the
// candidates in the same lf→bf→nl→nb order and replaces the best only on a
// strictly lower energy, so it picks the candidate a Predict over the
// materialized list would pick, with the energies Predict returns. What it
// saves is repetition: the pair terms (frequencies, CPI pair, stall
// fractions, V²f products) are derived once per frequency pair rather than
// once per core-count candidate, and no candidate is clamped (each is in
// range by construction). radius must not be negative.
func (e *Evaluator) Best(cur soc.Config, radius int) (best soc.Config, bestE float64) {
	if radius < 0 {
		panic("il: negative neighbourhood radius")
	}
	lo, hi := e.m.P.NeighborhoodBounds(cur, radius)
	found := false
	for lf := lo.LittleFreqIdx; lf <= hi.LittleFreqIdx; lf++ {
		for bf := lo.BigFreqIdx; bf <= hi.BigFreqIdx; bf++ {
			c := soc.Config{LittleFreqIdx: lf, BigFreqIdx: bf}
			pt := e.pair(c)
			for c.NLittle = lo.NLittle; c.NLittle <= hi.NLittle; c.NLittle++ {
				for c.NBig = lo.NBig; c.NBig <= hi.NBig; c.NBig++ {
					if en := e.m.predictionFrom(&e.r, &pt, c).Energy; en < bestE || !found {
						best, bestE, found = c, en, true
					}
				}
			}
		}
	}
	return best, bestE
}
