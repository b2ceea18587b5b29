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
// experience queue, and the Decide that queues a buffer's worth re-trains
// the neural policy in place with back-propagation — the paper's pipeline.
// An OnlineIL is not safe for concurrent use: a served session calls it
// under the session lock.
type OnlineIL struct {
	P      *soc.Platform
	Models *OnlineModels

	// Radius of the candidate neighborhood in knob space.
	Radius int
	// BufferCap is the aggregation-buffer size; the paper reports that
	// ~100 stored decisions need under 20 KB.
	BufferCap int
	// Seed drives the stochastic shuffling of incremental policy updates.
	// Two learners sharing a process must be given distinct seeds or their
	// training trajectories are perfectly correlated; DefaultSeed preserves
	// the historical single-learner behaviour.
	Seed int64

	// pol is the policy the decide path reads and each retrain trains in
	// place.
	pol *MLPPolicy

	decisions int

	// queue holds the aggregated samples not yet trained on, oldest first;
	// the Ingest that fills it to BufferCap retrains and empties it.
	queue   []Sample
	updates int64

	// Decision-path scratch, reused across calls so a steady-state Decide
	// allocates nothing: the state feature vector, the aggregation label
	// and the per-decision model evaluator.
	featBuf []float64
	labBuf  []float64
	ev      *Evaluator

	// Retrain scratch, reused across retrains: the standardized features
	// and the labels of the queued samples.
	txX [][]float64
	ys  [][]float64
}

// The paper's online-IL update schedule (Section IV-A3): every incremental
// policy update trains UpdateEpochs epochs at UpdateLR with UpdateMomentum,
// and the first warmupDecisions decisions execute the policy's own choice
// while the online models settle on the new workload.
const (
	UpdateEpochs            = 80
	UpdateLR        float64 = 0.02
	UpdateMomentum  float64 = 0.9
	warmupDecisions         = 2
)

// Sample is one experience-queue entry: the state features the policy saw
// and the model-labeled target configuration. The arrays are fixed-size so
// enqueueing is a straight copy — the decide path stays allocation-free.
type Sample struct {
	X [control.NumFeatures]float64
	Y [soc.NumConfigFeatures]float64
}

// DefaultSeed is the historical training seed of a fresh OnlineIL. All
// pre-existing experiment outputs were produced with it.
const DefaultSeed = 101

// NewOnlineIL wraps an offline-trained policy and warm-started models with
// the paper's default neighborhood and buffer and the historical default
// seed.
func NewOnlineIL(p *soc.Platform, policy *MLPPolicy, models *OnlineModels) *OnlineIL {
	return NewOnlineILSeeded(p, policy, models, DefaultSeed)
}

// NewOnlineILSeeded is NewOnlineIL with an explicit training seed, for
// processes hosting many concurrent learners (e.g. one per served session)
// that must not be correlated.
func NewOnlineILSeeded(p *soc.Platform, policy *MLPPolicy, models *OnlineModels, seed int64) *OnlineIL {
	return &OnlineIL{
		P:         p,
		Models:    models,
		Radius:    3,
		BufferCap: 8,
		Seed:      seed,
		pol:       policy,
	}
}

// Name implements control.Decider.
func (o *OnlineIL) Name() string { return "online-il" }

// Policy returns the learner's policy, which each retrain updates in place.
func (o *OnlineIL) Policy() *MLPPolicy { return o.pol }

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
// BufferCap-th aggregated decision also pays Ingest's retrain.
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

	// Aggregate the model-labeled sample (Ingest retrains when a buffer's
	// worth has accumulated). Transitional decisions — where the candidate
	// argmin sits on the neighborhood boundary, meaning the true optimum is
	// still outside the search radius — would teach the policy way-points
	// rather than destinations, so they are not aggregated. featBuf still
	// holds st's features from PolicyConfig.
	if o.interior(st.Config, best) {
		o.labBuf = o.P.AppendFeatures(o.labBuf[:0], best)
		o.Ingest(o.featBuf, o.labBuf)
	}

	if o.decisions <= warmupDecisions {
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

// Ingest queues one aggregated sample. The slices are borrowed from the
// caller's decision scratch and copied. Once a buffer's worth is queued,
// Ingest retrains the policy on the whole queue, oldest first, and empties
// it.
func (o *OnlineIL) Ingest(x, y []float64) {
	s := o.enqueue()
	copy(s.X[:], x)
	copy(s.Y[:], y)
	if len(o.queue) >= o.BufferCap {
		o.retrain()
	}
}

// enqueue appends an empty sample to the queue and returns it.
func (o *OnlineIL) enqueue() *Sample {
	o.queue = append(o.queue, Sample{})
	return &o.queue[len(o.queue)-1]
}

// retrain is the policy update: standardize the queued samples with the
// policy's scaler, train the policy on them in place with the next seed of
// the update schedule, and empty the queue.
func (o *OnlineIL) retrain() {
	pol := o.pol
	n := len(o.queue)
	for len(o.txX) < n {
		o.txX = append(o.txX, nil)
		o.ys = append(o.ys, nil)
	}
	txX, ys := o.txX[:n], o.ys[:n]
	for i := range o.queue {
		s := &o.queue[i]
		if cap(txX[i]) < len(s.X) {
			txX[i] = make([]float64, len(s.X))
		}
		txX[i] = pol.Scaler.TransformInto(txX[i][:len(s.X)], s.X[:])
		ys[i] = s.Y[:]
	}
	o.updates++
	pol.Net.TrainEpochs(txX, ys, UpdateEpochs, UpdateLR, UpdateMomentum, o.Seed+o.updates)
	o.queue = o.queue[:0]
}

// Updates returns how many incremental policy updates have happened.
func (o *OnlineIL) Updates() int { return int(o.updates) }

// Buffered returns how many samples wait for the next policy update.
func (o *OnlineIL) Buffered() int { return len(o.queue) }

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
