package il

import (
	"socrm/internal/control"
	"socrm/internal/soc"
)

// ringBuffers is the experience queue's capacity in aggregation buffers:
// a learner queues at most ringBuffers*BufferCap samples, and beyond that
// drops its oldest. A learner that retrains inline never queues more than
// BufferCap; the larger bound is the wire format's, so an envelope written
// by a daemon that trained in the background, with up to four buffers'
// worth queued, still imports.
const ringBuffers = 4

// Sample is one experience-queue slot: the state features the policy saw
// and the model-labeled target configuration. The arrays are fixed-size so
// enqueueing is a straight copy into the ring — the decide path stays
// allocation-free.
type Sample struct {
	X [control.NumFeatures]float64
	Y [soc.NumConfigFeatures]float64
}

// Trainer is the training side of an OnlineIL learner: a bounded queue of
// aggregated model-labeled samples and the retrain that turns them into a
// policy update. Ingest retrains the live policy in place as soon as a
// buffer's worth is queued (the paper's pipeline), on the goroutine that
// decides; like Decide, it is not safe for concurrent use.
type Trainer struct {
	o *OnlineIL

	// ring holds n queued samples, oldest at start. Its storage grows on
	// demand up to ringBuffers aggregation buffers, so a learner only holds
	// as many slots as it has queued at once.
	ring    []Sample
	start   int
	n       int
	dropped uint64
	updates int64

	// Retrain scratch, reused across retrains.
	txX [][]float64
	ys  [][]float64
}

// Ingest queues one aggregated sample, dropping the oldest queued sample
// when the ring is full. The slices are borrowed from the caller's decision
// scratch and copied. Once a buffer's worth is queued, Ingest retrains the
// policy on the whole queue, oldest first, and empties it.
func (t *Trainer) Ingest(x, y []float64) {
	s := t.slot()
	copy(s.X[:], x)
	copy(s.Y[:], y)
	if t.n < t.o.BufferCap {
		return
	}
	// The retrain reads the queue where it lies: from start, then the part
	// that wrapped.
	end := t.start + t.n
	t.retrain(t.ring[t.start:min(end, len(t.ring))], t.ring[:max(end-len(t.ring), 0)])
	t.start, t.n = 0, 0
}

// slot returns the ring slot the next sample goes to, growing the storage
// while it is below capacity and reusing the oldest slot, counted as
// dropped, once the ring is full.
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
	return &t.ring[i]
}

// Updates returns how many incremental policy updates have happened.
func (t *Trainer) Updates() int { return int(t.updates) }

// Buffered returns how many samples wait for the next policy update.
func (t *Trainer) Buffered() int { return t.n }

// retrain is the policy update: standardize the queued samples, head then
// tail, with the policy's scaler and train the policy on them in place
// with the next seed of the update schedule.
func (t *Trainer) retrain(head, tail []Sample) {
	o, pol := t.o, t.o.pol
	total := len(head) + len(tail)
	for len(t.txX) < total {
		t.txX = append(t.txX, nil)
		t.ys = append(t.ys, nil)
	}
	txX, ys := t.txX[:total], t.ys[:total]
	for i := 0; i < total; i++ {
		var s *Sample
		if i < len(head) {
			s = &head[i]
		} else {
			s = &tail[i-len(head)]
		}
		if cap(txX[i]) < len(s.X) {
			txX[i] = make([]float64, len(s.X))
		}
		txX[i] = pol.Scaler.TransformInto(txX[i][:len(s.X)], s.X[:])
		ys[i] = s.Y[:]
	}
	t.updates++
	pol.Net.TrainEpochs(txX, ys, o.Epochs, o.LR, o.Momentum, o.Seed+t.updates)
}
