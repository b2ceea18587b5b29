package serve

import (
	"sync"
	"time"

	"socrm/internal/control"
	"socrm/internal/il"
	"socrm/internal/metrics"
)

// trainerPool is the background half of the async adaptation pipeline: a
// fixed set of workers draining per-session experience queues and
// publishing retrained policy snapshots, so the step path never pays an
// MLP training epoch inline. Scheduling is strictly non-blocking — a
// session whose queue is ready is enqueued at most once (its trainPending
// flag), and when the pool's own queue is full the step path defers the
// retrain to a later step instead of waiting (admission control; the
// deferred counter makes the shedding observable).
type trainerPool struct {
	queue chan *Session
	stop  chan struct{}
	wg    sync.WaitGroup
	// closeMu orders enqueue against close: once closed is set no session
	// enters the queue, so close can release every session still in it.
	closeMu sync.Mutex
	closed  bool

	// shared is the bounded cross-session experience ring: every drained
	// batch is contributed, and each retrain mixes in up to crossBatch
	// recent samples from other sessions — the fleet-learning half of the
	// pipeline. crossBatch == 0 disables both sides.
	crossBatch int
	sharedMu   sync.Mutex
	shared     []il.Sample
	sharedN    int
	sharedPos  int

	mSwaps    *metrics.Counter
	mSamples  *metrics.Counter
	mDropped  *metrics.Meter
	mDeferred *metrics.Counter
	mDepth    *metrics.Gauge
	mLag      *metrics.Histogram
}

// newTrainerPool starts workers goroutines over a queue of queueCap pending
// sessions and registers the pipeline's metrics.
func newTrainerPool(workers, queueCap, crossBatch int, reg *metrics.Registry) *trainerPool {
	p := &trainerPool{
		queue:      make(chan *Session, queueCap),
		stop:       make(chan struct{}),
		crossBatch: crossBatch,
		mSwaps: reg.Counter("socserved_train_policy_swaps_total",
			"Background retrains published by atomic policy swap."),
		mSamples: reg.Counter("socserved_train_samples_total",
			"Experience samples consumed by background retrains."),
		mDropped: reg.Meter("socserved_train_dropped_experiences_total",
			"Experience samples shed by per-session drop-oldest backpressure."),
		mDeferred: reg.Counter("socserved_train_deferred_total",
			"Retrains deferred because the training queue was full."),
		mDepth: reg.Gauge("socserved_train_queue_depth",
			"Sessions currently waiting for a training worker."),
		mLag: reg.Histogram("socserved_train_lag_seconds",
			"Delay between a retrain becoming ready and its worker picking it up."),
	}
	if crossBatch > 0 {
		capacity := 32 * crossBatch
		if capacity < 256 {
			capacity = 256
		}
		p.shared = make([]il.Sample, capacity)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// enqueue hands a session to the pool without ever blocking; false means
// the queue is full and the caller should shed (the session's next step
// re-triggers scheduling), or the pool is closed.
func (p *trainerPool) enqueue(sess *Session) bool {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- sess:
		return true
	default:
		return false
	}
}

// backlogged reports whether training has fallen far enough behind that
// the daemon should stop advertising readiness: half the admission queue
// is already waiting.
func (p *trainerPool) backlogged() bool {
	q := len(p.queue)
	return q > 0 && 2*q >= cap(p.queue)
}

// close stops the workers and releases every session still queued, so no
// session stays scheduled for a retrain that will never run; their samples
// stay queued in their learners (and leave in their envelopes).
func (p *trainerPool) close() {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
	for {
		select {
		case sess := <-p.queue:
			if sess != nil {
				sess.trainPending.Store(false)
			}
		default:
			return
		}
	}
}

func (p *trainerPool) worker() {
	defer p.wg.Done()
	// extras is this worker's private cross-session sample scratch.
	var extras []il.Sample
	for {
		select {
		case <-p.stop:
			return
		case sess := <-p.queue:
			if sess != nil {
				extras = p.train(sess, extras)
			}
		}
	}
}

// train runs one retrain cycle for a scheduled session: drain its queue,
// mix in cross-session experience, train a policy clone, publish it.
func (p *trainerPool) train(sess *Session, extras []il.Sample) []il.Sample {
	tr := sess.trainer
	if queued := sess.trainQueuedAt.Load(); queued != 0 {
		p.mLag.Observe(time.Since(time.Unix(0, queued)).Seconds())
	}
	batch := tr.Drain()
	p.mDropped.Add(float64(tr.TakeDropped()))
	// A session closed while queued still trains: its trainer and policy
	// snapshot are private, so the work is wasted but harmless, and
	// skipping would complicate the close path for no observable gain.
	if len(batch) > 0 || p.crossBatch > 0 {
		extras = p.sampleShared(extras[:0])
		if len(batch)+len(extras) > 0 {
			tr.TrainOn(batch, extras)
			p.mSwaps.Inc()
			p.mSamples.Add(float64(len(batch) + len(extras)))
		}
		p.contribute(batch)
	}
	// Release the scheduled flag only after draining: a step that raced in
	// new samples re-triggers scheduling on the session's next step.
	sess.trainPending.Store(false)
	return extras
}

// contribute copies a drained batch into the shared cross-session ring
// (drop-oldest), making it available to other sessions' retrains.
func (p *trainerPool) contribute(batch []il.Sample) {
	if p.crossBatch == 0 || len(batch) == 0 {
		return
	}
	p.sharedMu.Lock()
	for i := range batch {
		p.shared[p.sharedPos] = batch[i]
		p.sharedPos++
		if p.sharedPos == len(p.shared) {
			p.sharedPos = 0
		}
		if p.sharedN < len(p.shared) {
			p.sharedN++
		}
	}
	p.sharedMu.Unlock()
}

// sampleShared copies up to crossBatch samples spread across the shared
// ring into dst. The spread (rather than most-recent-first) keeps a single
// chatty session from dominating every other session's extras.
func (p *trainerPool) sampleShared(dst []il.Sample) []il.Sample {
	if p.crossBatch == 0 {
		return dst
	}
	p.sharedMu.Lock()
	n := p.sharedN
	k := p.crossBatch
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		dst = append(dst, p.shared[i*n/k])
	}
	p.sharedMu.Unlock()
	return dst
}

// maybeScheduleTraining is the step-path hook: when a detached session has
// a buffer's worth of experience queued, hand it to the pool exactly once.
// Until then it is a few atomic loads. It allocates nothing and never
// waits for the pool, whatever state the pool is in.
func (s *Server) maybeScheduleTraining(sess *Session) {
	if s.trainers == nil || sess.trainer == nil || !sess.trainer.Ready() || sess.trainPending.Load() {
		return
	}
	// Claim under the session lock: once close has run, no retrain can be
	// scheduled, so DetachSession only waits out one scheduled before.
	sess.mu.Lock()
	claimed := !sess.closed && sess.trainPending.CompareAndSwap(false, true)
	sess.mu.Unlock()
	if !claimed {
		return
	}
	sess.trainQueuedAt.Store(time.Now().UnixNano())
	if !s.trainers.enqueue(sess) {
		sess.trainPending.Store(false)
		s.trainers.mDeferred.Inc()
	}
}

// detach hands an online learner's retrains to the trainer pool and returns
// the trainer the pool drains for its session; nil for every other decider
// and when learners train inline.
func (s *Server) detach(dec control.Decider) *il.Trainer {
	oil, isOIL := dec.(*il.OnlineIL)
	if s.trainers == nil || !isOIL {
		return nil
	}
	return oil.AsyncMode()
}

// accountDropped adds the samples a removed session's queue shed to the
// dropped meter; no worker will drain the session again to observe them.
func (s *Server) accountDropped(sess *Session) {
	if s.trainers != nil && sess.trainer != nil {
		s.trainers.mDropped.Add(float64(sess.trainer.TakeDropped()))
	}
}
