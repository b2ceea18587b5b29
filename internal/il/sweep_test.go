package il

import (
	"math"
	"math/rand"
	"testing"

	"socrm/internal/control"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// recorded moves what o queued into rec, oldest first, and empties the
// queue after a decision, so the learner never reaches a retrain and keeps
// its policy, its queue never drops, and the test sees exactly what Decide
// labelled.
func recorded(rec []Sample, o *OnlineIL) []Sample {
	rec = append(rec, o.queue...)
	o.queue = o.queue[:0]
	return rec
}

// refDecide is OnlineIL.Decide written over the materialized candidate
// list: AppendNeighborhood, then one Evaluator.Predict per candidate with
// a strict-< argmin, then the policy's suggestion when it lies outside the
// neighbourhood. It returns the decision and whether a later candidate
// tied the best energy at the time it was evaluated.
func refDecide(o *OnlineIL, ev *Evaluator, st control.State) (soc.Config, bool) {
	o.decisions++
	polCfg := o.PolicyConfig(st)
	cands := o.P.AppendNeighborhood(nil, st.Config, o.Radius)
	ev.Begin(st)
	best := cands[0]
	bestE := ev.Predict(best).Energy
	tied := false
	for _, c := range cands[1:] {
		e := ev.Predict(c).Energy
		tied = tied || e == bestE
		if e < bestE {
			best, bestE = c, e
		}
	}
	if !o.P.InNeighborhood(st.Config, polCfg, o.Radius) {
		if e := ev.Predict(polCfg).Energy; e < bestE {
			best = polCfg
		}
	}
	if o.interior(st.Config, best) {
		o.Ingest(st.AppendFeatures(nil, o.P), o.P.AppendFeatures(nil, best))
	}
	if o.decisions <= warmupDecisions {
		return polCfg, tied
	}
	return best, tied
}

func sameBits(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i].X {
			if math.Float64bits(a[i].X[j]) != math.Float64bits(b[i].X[j]) {
				return false
			}
		}
		for j := range a[i].Y {
			if math.Float64bits(a[i].Y[j]) != math.Float64bits(b[i].Y[j]) {
				return false
			}
		}
	}
	return true
}

// TestDecideSweepMatchesReference checks that Decide's in-place candidate
// sweep picks the same configuration and ingests the same (x, y) samples,
// bit for bit, as the materialized AppendNeighborhood + Predict loop, over
// random states, radii and current configurations (some out of range) on
// models that keep adapting. Two model variants force the edges: one whose
// idle-core power weights are 0, so candidates that differ only in idle
// cores tie and the first must win, and one whose power weights are NaN,
// so every energy is NaN and the first candidate must stand.
func TestDecideSweepMatchesReference(t *testing.T) {
	base := trainerFixture(t)
	p := base.P
	apps := append(shortApps(10), workload.Cortex(1)[0])
	tieModels := base.Models.Clone()
	for _, i := range []int{2, 5, 6, 7} {
		tieModels.Power.W[i] = 0
	}
	nanModels := base.Models.Clone()
	nanModels.Power.W[3] = math.NaN()

	rng := rand.New(rand.NewSource(5))
	var ties, outside, polPicked, aggregated int
	for v, models := range []*OnlineModels{base.Models.Clone(), tieModels, nanModels} {
		got := NewOnlineIL(p, base.Policy(), models)
		ref := NewOnlineIL(p, base.Policy(), models)
		var gotRec, refRec []Sample
		refEv := models.NewEvaluator()
		for i := 0; i < 400; i++ {
			radius := rng.Intn(5)
			got.Radius, ref.Radius = radius, radius
			app := apps[rng.Intn(len(apps))]
			sn := app.Snippets[rng.Intn(len(app.Snippets))]
			cfg := soc.Config{
				LittleFreqIdx: rng.Intn(len(p.LittleOPPs)+4) - 2,
				BigFreqIdx:    rng.Intn(len(p.BigOPPs)+4) - 2,
				NLittle:       rng.Intn(6),
				NBig:          rng.Intn(7) - 1,
			}
			st := stateFor(p, sn, p.Clamp(cfg))
			st.Config = cfg

			want, tied := refDecide(ref, refEv, st)
			if c := got.Decide(st); c != want {
				t.Fatalf("variant %d decision %d (radius %d, config %+v): Decide = %+v, reference %+v", v, i, radius, cfg, c, want)
			}
			gotRec, refRec = recorded(gotRec, got), recorded(refRec, ref)
			if !sameBits(gotRec, refRec) {
				t.Fatalf("variant %d decision %d: ingested samples differ from the reference", v, i)
			}
			if tied {
				ties++
			}
			if pol := got.PolicyConfig(st); !p.InNeighborhood(st.Config, pol, radius) {
				outside++
				if i >= warmupDecisions && want == pol {
					polPicked++
				}
			}
			// Keep the models moving, as served sessions do.
			if rng.Intn(3) == 0 {
				models.Update(stateFor(p, sn, p.Clamp(cfg)))
			}
		}
		aggregated += len(gotRec)
	}
	t.Logf("%d tied sweeps, %d suggestions outside the neighbourhood (%d picked), %d samples ingested", ties, outside, polPicked, aggregated)
	if ties == 0 || outside == 0 || polPicked == 0 || aggregated == 0 {
		t.Fatalf("coverage: %d tied sweeps, %d suggestions outside the neighbourhood (%d picked), %d samples ingested; every count must be > 0",
			ties, outside, polPicked, aggregated)
	}
}

// TestEvaluatorBestMatchesPredict checks Evaluator.Best's energy against
// Predict on the candidate it returns, and that no candidate of the
// materialized neighbourhood is strictly lower.
func TestEvaluatorBestMatchesPredict(t *testing.T) {
	oil := trainerFixture(t)
	p := oil.P
	ev := oil.Models.NewEvaluator()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		app := shortApps(8)[rng.Intn(3)]
		cfg := p.Configs()[rng.Intn(p.NumConfigs())]
		st := stateFor(p, app.Snippets[rng.Intn(len(app.Snippets))], cfg)
		radius := rng.Intn(4)
		ev.Begin(st)
		best, bestE := ev.Best(cfg, radius)
		if e := ev.Predict(best).Energy; math.Float64bits(e) != math.Float64bits(bestE) {
			t.Fatalf("Best energy %v, Predict of its pick %v", bestE, e)
		}
		for _, c := range p.Neighborhood(cfg, radius) {
			if e := ev.Predict(c).Energy; e < bestE {
				t.Fatalf("candidate %+v has energy %v below Best's %v", c, e, bestE)
			}
		}
	}
}

// TestPowerDotMatchesFeatures holds predictionFrom's in-place power dot to
// the model's own prediction on powerFeaturesInto's vector, which is what
// the power update trains on: the same terms in the same order, bit for
// bit. The weights are random with some ±0, NaN, Inf and huge entries, the
// states, configurations and CPI pairs random.
func TestPowerDotMatchesFeatures(t *testing.T) {
	p := soc.NewXU3()
	m := NewOnlineModels(p)
	apps := shortApps(8)
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1e300}
	rng := rand.New(rand.NewSource(11))
	var buf [powerDim]float64
	for i := 0; i < 2000; i++ {
		for k := range m.Power.W {
			m.Power.W[k] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				m.Power.W[k] = specials[rng.Intn(len(specials))]
			}
		}
		app := apps[rng.Intn(len(apps))]
		st := stateFor(p, app.Snippets[rng.Intn(len(app.Snippets))], p.Configs()[rng.Intn(p.NumConfigs())])
		r := ratesOf(st)
		c := p.Configs()[rng.Intn(p.NumConfigs())]
		fl := p.LittleOPPs[c.LittleFreqIdx].FreqMHz / 1000
		fb := p.BigOPPs[c.BigFreqIdx].FreqMHz / 1000
		pt := m.pairTermsOf(r, c, fl, fb, 0.3+3*rng.Float64(), 0.5+3*rng.Float64())

		got := m.predictionFrom(&r, &pt, c)
		ub, ul := soc.Placement(r.threads, c)
		extBW := r.missPerInstr * r.instr * p.CacheLineB / got.Time / 1e9
		want := m.Power.Predict(powerFeaturesInto(buf[:], &pt, c, ub, ul, extBW))
		if want < minPower {
			want = minPower
		}
		if !sameValue(got.Power, want) || !sameValue(got.Energy, want*got.Time) {
			t.Fatalf("case %d (config %+v): predictionFrom power %v energy %v, feature-vector dot %v energy %v",
				i, c, got.Power, got.Energy, want, want*got.Time)
		}
	}
}

// sameValue reports whether a and b have the same bits or are both NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}
