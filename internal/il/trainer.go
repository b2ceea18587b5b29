package il

import (
	"sync"
	"sync/atomic"

	"socrm/internal/control"
	"socrm/internal/soc"
)

// Trainer is the training side of an OnlineIL learner. Decide hands every
// aggregated model-labeled sample to Ingest and otherwise never touches
// training state, so the learner can run with training inline (syncTrainer,
// the historical bit-identical behaviour) or detached on a background
// worker (AsyncTrainer) without the decide path knowing the difference.
type Trainer interface {
	// Ingest records one aggregated sample. The slices are borrowed from
	// the caller's decision scratch and are only valid for the duration of
	// the call; an implementation must copy what it keeps.
	Ingest(x, y []float64)
	// Updates returns how many incremental policy updates have happened.
	Updates() int
	// Buffered returns how many ingested samples are waiting for the next
	// policy update.
	Buffered() int
}

// syncTrainer trains inline inside Ingest the moment the aggregation buffer
// reaches capacity — the paper's original pipeline, kept bit-identical to
// the pre-split OnlineIL (same buffer layout, same per-update seed
// schedule) so the experiment goldens pin it.
type syncTrainer struct {
	o          *OnlineIL
	bufX, bufY [][]float64
	updates    int
	// dropped is the shed count an envelope from an asynchronous trainer
	// carried in. A synchronous trainer never drops; it passes the count on
	// at its next export.
	dropped uint64
	// txX is the standardized-features scratch of the retrain, reused so a
	// buffer fill does not re-derive its input matrix storage (rows keep
	// their capacity across updates).
	txX [][]float64
}

func (t *syncTrainer) Ingest(x, y []float64) {
	t.bufX = growRow(t.bufX)
	i := len(t.bufX) - 1
	t.bufX[i] = append(t.bufX[i][:0], x...)
	t.bufY = growRow(t.bufY)
	i = len(t.bufY) - 1
	t.bufY[i] = append(t.bufY[i][:0], y...)
	if len(t.bufX) >= t.o.BufferCap {
		t.train()
		t.bufX = t.bufX[:0]
		t.bufY = t.bufY[:0]
	}
}

func (t *syncTrainer) train() {
	o := t.o
	pol := o.pol.Load()
	for len(t.txX) < len(t.bufX) {
		t.txX = growRow(t.txX)
	}
	t.txX = t.txX[:len(t.bufX)]
	for i, row := range t.bufX {
		if cap(t.txX[i]) < len(row) {
			t.txX[i] = make([]float64, len(row))
		}
		t.txX[i] = pol.Scaler.TransformInto(t.txX[i][:len(row)], row)
	}
	t.updates++
	pol.Net.TrainEpochs(t.txX, t.bufY, o.Epochs, o.LR, o.Momentum, o.Seed+int64(t.updates))
}

func (t *syncTrainer) Updates() int  { return t.updates }
func (t *syncTrainer) Buffered() int { return len(t.bufX) }

// Sample is one experience-queue slot: the state features the policy saw
// and the model-labeled target configuration. The arrays are fixed-size so
// enqueueing is a straight copy into preallocated ring storage — the async
// decide path stays allocation-free even while the queue churns.
type Sample struct {
	X [control.NumFeatures]float64
	Y [soc.NumConfigFeatures]float64
}

// AsyncTrainer decouples policy training from the decide path. Ingest
// copies samples into a bounded ring (drop-oldest beyond capacity — the
// decide path is never blocked and never trains); a background worker
// drains the ring with Drain and retrains with TrainOn, which trains a
// clone of the current policy snapshot and atomically publishes it. Decide
// picks up the new snapshot on its next pol.Load without ever waiting.
type AsyncTrainer struct {
	o *OnlineIL
	// batch is the retrain trigger threshold, captured from BufferCap so
	// async training fires at the same cadence the synchronous learner
	// would.
	batch int

	mu      sync.Mutex
	ring    []Sample
	start   int
	n       int
	dropped uint64

	// pending mirrors n so the serving step path can poll readiness with a
	// single atomic load instead of taking the ring mutex per step.
	pending atomic.Int64
	updates atomic.Int64

	// Worker-side scratch, reused across retrains. Only ever touched by
	// Drain/TrainOn, which callers must serialize (the serving pool's
	// per-session scheduled flag guarantees it).
	take []Sample
	txX  [][]float64
	ys   [][]float64
}

// AsyncMode detaches training from this learner's decide path and returns
// the trainer whose queue a background worker must drain (Drain + TrainOn).
// queueCap bounds the experience ring in samples; <=0 selects four
// aggregation buffers' worth. Call before serving decisions.
func (o *OnlineIL) AsyncMode(queueCap int) *AsyncTrainer {
	if queueCap <= 0 {
		queueCap = 4 * o.BufferCap
	}
	t := &AsyncTrainer{o: o, batch: o.BufferCap, ring: make([]Sample, queueCap)}
	o.trainer = t
	return t
}

// Ingest implements Trainer: copy the sample into the ring, dropping the
// oldest queued sample when full. Constant-time, allocation-free, never
// trains.
func (t *AsyncTrainer) Ingest(x, y []float64) {
	t.mu.Lock()
	var s *Sample
	if t.n == len(t.ring) {
		s = &t.ring[t.start]
		t.start++
		if t.start == len(t.ring) {
			t.start = 0
		}
		t.dropped++
	} else {
		i := t.start + t.n
		if i >= len(t.ring) {
			i -= len(t.ring)
		}
		s = &t.ring[i]
		t.n++
		t.pending.Store(int64(t.n))
	}
	copy(s.X[:], x)
	copy(s.Y[:], y)
	t.mu.Unlock()
}

// Updates implements Trainer.
func (t *AsyncTrainer) Updates() int { return int(t.updates.Load()) }

// Buffered implements Trainer without taking the ring mutex.
func (t *AsyncTrainer) Buffered() int { return int(t.pending.Load()) }

// Ready reports whether enough samples are queued to justify a retrain —
// one aggregation buffer's worth, the synchronous learner's cadence.
func (t *AsyncTrainer) Ready() bool { return t.pending.Load() >= int64(t.batch) }

// Dropped returns how many samples drop-oldest backpressure has discarded
// since the last TakeDropped.
func (t *AsyncTrainer) Dropped() uint64 {
	t.mu.Lock()
	d := t.dropped
	t.mu.Unlock()
	return d
}

// TakeDropped returns and resets the dropped-sample count, so a metrics
// accumulator can sum deltas across many trainers without double counting.
func (t *AsyncTrainer) TakeDropped() uint64 {
	t.mu.Lock()
	d := t.dropped
	t.dropped = 0
	t.mu.Unlock()
	return d
}

// Drain moves every queued sample (oldest first) into the trainer's private
// batch and returns it; the slice is reused and only valid until the next
// Drain. Worker-side only.
func (t *AsyncTrainer) Drain() []Sample {
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
	t.start, t.n = 0, 0
	t.pending.Store(0)
	t.mu.Unlock()
	return take
}

// TrainOn retrains on the drained batch plus optional cross-session extras:
// it clones the current policy snapshot (Clone reads only the weights,
// which nothing mutates in async mode, so it is race-free against in-flight
// Predicts), trains the clone privately and atomically publishes it.
// Worker-side only; callers must not run two TrainOns concurrently on one
// trainer.
func (t *AsyncTrainer) TrainOn(own, extra []Sample) {
	total := len(own) + len(extra)
	if total == 0 {
		return
	}
	o := t.o
	next := o.pol.Load().Clone()
	for len(t.txX) < total {
		t.txX = growRow(t.txX)
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
		txX[i] = next.Scaler.TransformInto(txX[i][:len(s.X)], s.X[:])
		ys[i] = s.Y[:]
	}
	u := t.updates.Add(1)
	next.Net.TrainEpochs(txX, ys, o.Epochs, o.LR, o.Momentum, o.Seed+u)
	o.pol.Store(next)
}

var (
	_ Trainer = (*syncTrainer)(nil)
	_ Trainer = (*AsyncTrainer)(nil)
)
