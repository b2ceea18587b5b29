package il

import (
	"socrm/internal/control"
	"socrm/internal/soc"
)

// OnlineIL is the model-guided online imitation learner of Section IV-A3
// (ref [13]). Before every decision it evaluates the candidate
// configurations in a local neighborhood of the current configuration with
// the adaptive analytical models; the best candidate becomes (a) the
// executed configuration and (b) the runtime approximation of the Oracle
// that supervises the policy. Labeled states aggregate in the learner's
// Trainer, which re-trains the neural policy in place with
// back-propagation inside the Decide that queues a buffer's worth — the
// paper's pipeline. An OnlineIL is not safe for concurrent use: a served
// session calls it under the session lock.
type OnlineIL struct {
	P      *soc.Platform
	Models *OnlineModels

	// Radius of the candidate neighborhood in knob space.
	Radius int
	// BufferCap is the aggregation-buffer size; the paper reports that
	// ~100 stored decisions need under 20 KB.
	BufferCap int
	// Epochs/LR/Momentum control each incremental policy update.
	Epochs   int
	LR       float64
	Momentum float64
	// Warmup is the number of initial decisions executed from the policy
	// alone while the online models settle on the new workload.
	Warmup int
	// Seed drives the stochastic shuffling of incremental policy updates.
	// Two learners sharing a process must be given distinct seeds or their
	// training trajectories are perfectly correlated; DefaultSeed preserves
	// the historical single-learner behaviour.
	Seed int64

	// pol is the policy the decide path reads and the trainer trains in
	// place.
	pol     *MLPPolicy
	trainer *Trainer

	decisions int

	// Decision-path scratch, reused across calls so a steady-state Decide
	// allocates nothing: the state feature vector, the aggregation label
	// and the per-decision model evaluator.
	featBuf []float64
	labBuf  []float64
	ev      *Evaluator
}

// DefaultSeed is the historical training seed of a fresh OnlineIL. All
// pre-existing experiment outputs were produced with it.
const DefaultSeed = 101

// NewOnlineIL wraps an offline-trained policy and warm-started models with
// the paper's default online-IL hyperparameters and the historical default
// seed.
func NewOnlineIL(p *soc.Platform, policy *MLPPolicy, models *OnlineModels) *OnlineIL {
	return NewOnlineILSeeded(p, policy, models, DefaultSeed)
}

// NewOnlineILSeeded is NewOnlineIL with an explicit training seed, for
// processes hosting many concurrent learners (e.g. one per served session)
// that must not be correlated.
func NewOnlineILSeeded(p *soc.Platform, policy *MLPPolicy, models *OnlineModels, seed int64) *OnlineIL {
	o := &OnlineIL{
		P:         p,
		Models:    models,
		Radius:    3,
		BufferCap: 8,
		Epochs:    80,
		LR:        0.02,
		Momentum:  0.9,
		Warmup:    2,
		Seed:      seed,
		pol:       policy,
	}
	o.trainer = &Trainer{o: o}
	return o
}

// Name implements control.Decider.
func (o *OnlineIL) Name() string { return "online-il" }

// Policy returns the learner's policy, which each retrain updates in place.
func (o *OnlineIL) Policy() *MLPPolicy { return o.pol }

// Trainer returns the learner's training side.
func (o *OnlineIL) Trainer() *Trainer { return o.trainer }

// PolicyConfig returns what the policy alone would choose — the quantity
// whose agreement with the Oracle Figure 3 tracks over time.
func (o *OnlineIL) PolicyConfig(st control.State) soc.Config {
	o.featBuf = st.AppendFeatures(o.featBuf[:0], o.P)
	return o.pol.PredictConfig(o.featBuf)
}

// Decide implements control.Decider: model-guided candidate selection plus
// DAgger-style data aggregation. Steady-state decisions are allocation-free:
// the evaluator sweeps the candidate neighborhood in place (Evaluator.Best)
// without materializing it, feature vectors and model scratch are reused
// buffers, and the CPI predictions are memoized per frequency pair. Every
// BufferCap-th aggregated decision also pays the Trainer's retrain.
func (o *OnlineIL) Decide(st control.State) soc.Config {
	o.decisions++
	polCfg := o.PolicyConfig(st)

	// Candidate set: the local neighborhood of the current configuration,
	// plus the policy's own suggestion so the learner can be followed once
	// it is right. When the suggestion already lies inside the
	// neighborhood it is a duplicate and is not evaluated a second time.
	if o.ev == nil {
		o.ev = o.Models.NewEvaluator()
	}
	o.ev.Begin(st)
	best, bestE := o.ev.Best(st.Config, o.Radius)
	if !o.P.InNeighborhood(st.Config, polCfg, o.Radius) {
		if e := o.ev.Predict(polCfg).Energy; e < bestE {
			best = polCfg
		}
	}

	// Aggregate the model-labeled sample through the trainer (which
	// retrains when a buffer's worth has accumulated). Transitional
	// decisions — where the candidate argmin sits on the neighborhood
	// boundary, meaning the true optimum is still outside the search
	// radius — would teach the policy way-points rather than destinations,
	// so they are not aggregated. featBuf still holds st's features from
	// PolicyConfig.
	if o.interior(st.Config, best) {
		o.labBuf = o.P.AppendFeatures(o.labBuf[:0], best)
		o.trainer.Ingest(o.featBuf, o.labBuf)
	}

	if o.decisions <= o.Warmup {
		return polCfg
	}
	return best
}

// interior reports whether best is strictly inside the search neighborhood
// of cur on every knob, treating the edges of the configuration domain as
// interior (an argmin pinned at the lowest frequency is a destination, not
// a way-point).
func (o *OnlineIL) interior(cur, best soc.Config) bool {
	in := func(c, b, lo, hi int) bool {
		d := c - b
		if d < 0 {
			d = -d
		}
		return d < o.Radius || b == lo || b == hi
	}
	return in(cur.LittleFreqIdx, best.LittleFreqIdx, 0, len(o.P.LittleOPPs)-1) &&
		in(cur.BigFreqIdx, best.BigFreqIdx, 0, len(o.P.BigOPPs)-1) &&
		in(cur.NLittle, best.NLittle, soc.MinNLittle, soc.MaxNLittle) &&
		in(cur.NBig, best.NBig, soc.MinNBig, soc.MaxNBig)
}

// Updates returns how many incremental policy updates have happened.
func (o *OnlineIL) Updates() int { return o.trainer.Updates() }

// BufferBytes reports the storage footprint of a full aggregation buffer
// (the paper's "<20 KB" figure): float64 features plus labels per slot.
func (o *OnlineIL) BufferBytes() int {
	return o.BufferCap * (control.NumFeatures + 4) * 8
}

// Observe implements control.Observer: every executed snippet updates the
// analytical models with its measured counters and power. Model updates are
// cheap RLS rank-one steps that the very next decision's candidate sweep
// needs.
func (o *OnlineIL) Observe(_ control.State, _ soc.Config, _ soc.Result, next control.State) {
	o.Models.Update(next)
}
