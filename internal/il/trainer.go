package il

import (
	"sync"
	"sync/atomic"

	"socrm/internal/control"
	"socrm/internal/soc"
)

// ringBuffers is the experience queue's capacity in aggregation buffers:
// a learner queues at most ringBuffers*BufferCap samples, and beyond that
// drops its oldest.
const ringBuffers = 4

// Sample is one experience-queue slot: the state features the policy saw
// and the model-labeled target configuration. The arrays are fixed-size so
// enqueueing is a straight copy into the ring — the decide path stays
// allocation-free even while the queue churns.
type Sample struct {
	X [control.NumFeatures]float64
	Y [soc.NumConfigFeatures]float64
}

// Trainer is the training side of an OnlineIL learner: a bounded queue of
// aggregated model-labeled samples and the one retrain routine that turns a
// buffer's worth of them into a policy update. A mode changes only who runs
// the retrain. Inline (the default, the paper's pipeline), Ingest retrains
// the live policy in place as soon as a buffer's worth is queued. Detached
// (AsyncMode), Ingest only queues — it never blocks and never trains — and
// a background worker runs Drain and TrainOn, which retrain a copy of the
// policy, momentum included, and publish it. Fed the same samples at the
// same cadence, both modes produce the same policy bit for bit.
type Trainer struct {
	o *OnlineIL
	// detached is set by AsyncMode before serving; Ingest then never trains.
	detached bool

	// ring holds n queued samples, oldest at start. Its storage grows on
	// demand up to ringBuffers aggregation buffers, so a learner only holds
	// as many slots as it has queued at once. The first inflight samples of
	// take are a detached retrain's batch: drained, but not yet published
	// with the policy trained on them. mu also orders an export against
	// that publish (EncodeStateTo).
	mu       sync.Mutex
	ring     []Sample
	start    int
	n        int
	dropped  uint64
	inflight int

	// pending mirrors n so the serving step path can poll readiness with a
	// single atomic load instead of taking the ring mutex per step.
	pending atomic.Int64
	updates atomic.Int64

	// Retrain scratch, reused across retrains. Retrains of one trainer never
	// overlap: inline ones run on the decide goroutine, detached ones on the
	// one worker the serving pool's per-session scheduled flag admits.
	take []Sample
	txX  [][]float64
	ys   [][]float64
}

// AsyncMode detaches retraining from this learner's decide path and returns
// its trainer, whose queue a background worker must drain (Drain +
// TrainOn). Call before serving decisions.
func (o *OnlineIL) AsyncMode() *Trainer {
	o.trainer.detached = true
	return o.trainer
}

// Ingest queues one aggregated sample, dropping the oldest queued sample
// when the ring is full. The slices are borrowed from the caller's decision
// scratch and copied. Inline, a buffer's worth of queued samples then
// retrains the policy; detached, Ingest is constant-time and
// allocation-free once the ring has grown.
func (t *Trainer) Ingest(x, y []float64) {
	t.mu.Lock()
	s := t.slot()
	copy(s.X[:], x)
	copy(s.Y[:], y)
	t.mu.Unlock()
	if t.detached || t.n < t.o.BufferCap {
		return
	}
	// Inline, only the decide goroutine touches the ring, so the retrain
	// reads the queue in place, oldest first: from start, then the part
	// that wrapped.
	end := t.start + t.n
	u := t.retrain(t.o.pol.Load(), t.ring[t.start:min(end, len(t.ring))], t.ring[:max(end-len(t.ring), 0)])
	t.updates.Store(u)
	t.start, t.n = 0, 0
	t.pending.Store(0)
}

// slot returns the ring slot the next sample goes to, growing the storage
// while it is below capacity and reusing the oldest slot, counted as
// dropped, once the ring is full. The caller holds mu or owns the trainer
// exclusively.
func (t *Trainer) slot() *Sample {
	if t.n >= ringBuffers*t.o.BufferCap {
		s := &t.ring[t.start]
		t.start++
		if t.start == len(t.ring) {
			t.start = 0
		}
		t.dropped++
		return s
	}
	// Only a full ring drops, so start is 0 while the storage still grows.
	i := t.start + t.n
	switch {
	case i < len(t.ring):
	case t.start == 0:
		t.ring = append(t.ring, Sample{})
	default:
		i -= len(t.ring)
	}
	t.n++
	t.pending.Store(int64(t.n))
	return &t.ring[i]
}

// Updates returns how many incremental policy updates have happened.
func (t *Trainer) Updates() int { return int(t.updates.Load()) }

// Buffered returns how many samples wait for the next policy update,
// without taking the ring mutex.
func (t *Trainer) Buffered() int { return int(t.pending.Load()) }

// Ready reports whether a buffer's worth of samples is queued — the
// cadence at which an inline learner retrains.
func (t *Trainer) Ready() bool { return t.pending.Load() >= int64(t.o.BufferCap) }

// Dropped returns how many samples drop-oldest backpressure has discarded
// since the last TakeDropped.
func (t *Trainer) Dropped() uint64 {
	t.mu.Lock()
	d := t.dropped
	t.mu.Unlock()
	return d
}

// TakeDropped returns and resets the dropped-sample count, so a metrics
// accumulator can sum deltas across many trainers without double counting.
func (t *Trainer) TakeDropped() uint64 {
	t.mu.Lock()
	d := t.dropped
	t.dropped = 0
	t.mu.Unlock()
	return d
}

// Drain moves every queued sample (oldest first) into the trainer's private
// batch and returns it for TrainOn; the slice is reused and only valid until
// the next Drain. Until TrainOn publishes the retrain, an export still
// carries the drained samples as queued, beside the policy and update count
// they have not changed yet. Detached, only the worker calls it.
func (t *Trainer) Drain() []Sample {
	t.mu.Lock()
	if cap(t.take) < t.n {
		t.take = make([]Sample, t.n)
	}
	take := t.take[:t.n]
	for i := range take {
		j := t.start + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		take[i] = t.ring[j]
	}
	t.start, t.n, t.inflight = 0, 0, len(take)
	t.pending.Store(0)
	t.mu.Unlock()
	return take
}

// TrainOn is the detached retrain: it runs the retrain on a copy of the
// current policy snapshot that carries the snapshot's momentum, then
// atomically publishes the copy, so a Decide in flight keeps the old
// snapshot untouched. extra holds cross-session samples trained after own.
// The new policy, the update count and the end of the drained batch's
// flight are published in one critical section, so an export sees the
// retrain either not at all or whole. A detached learner's snapshot is
// never trained in place, so copying it races no Predict. Worker-side
// only; callers must not run two TrainOns concurrently on one trainer.
func (t *Trainer) TrainOn(own, extra []Sample) {
	if len(own)+len(extra) == 0 {
		return
	}
	cur := t.o.pol.Load()
	next := &MLPPolicy{Net: cur.Net.CloneWithMomentum(), Scaler: cur.Scaler, P: cur.P}
	u := t.retrain(next, own, extra)
	t.mu.Lock()
	t.o.pol.Store(next)
	t.updates.Store(u)
	t.inflight = 0
	t.mu.Unlock()
}

// retrain is the one policy update of both modes: standardize own then
// extra with pol's scaler and train pol on them with the next seed of the
// update schedule. It returns the update count to publish with pol.
func (t *Trainer) retrain(pol *MLPPolicy, own, extra []Sample) int64 {
	o := t.o
	total := len(own) + len(extra)
	for len(t.txX) < total {
		t.txX = append(t.txX, nil)
		t.ys = append(t.ys, nil)
	}
	txX, ys := t.txX[:total], t.ys[:total]
	for i := 0; i < total; i++ {
		var s *Sample
		if i < len(own) {
			s = &own[i]
		} else {
			s = &extra[i-len(own)]
		}
		if cap(txX[i]) < len(s.X) {
			txX[i] = make([]float64, len(s.X))
		}
		txX[i] = pol.Scaler.TransformInto(txX[i][:len(s.X)], s.X[:])
		ys[i] = s.Y[:]
	}
	u := t.updates.Load() + 1
	pol.Net.TrainEpochs(txX, ys, o.Epochs, o.LR, o.Momentum, o.Seed+u)
	return u
}
