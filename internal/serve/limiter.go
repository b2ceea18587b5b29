package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"socrm/internal/metrics"
)

// Limiter is the admission-control valve of the step path: at most Inflight
// requests execute at once, at most Queue more wait (briefly) for a slot,
// and everything beyond that is shed immediately with 429 + Retry-After.
// The invariant is that nothing ever queues unboundedly — under overload
// the service answers "come back later" in microseconds instead of letting
// every client time out behind a growing backlog.
//
// The fast path is one non-blocking channel operation and two atomic adds;
// it allocates nothing, so an admitted step stays on the zero-alloc
// contract. Only the (already degraded) waiting path arms a timer.
type Limiter struct {
	sem       chan struct{}
	queue     int64
	queueWait time.Duration
	waiting   atomic.Int64

	mAdmitted *metrics.Counter
	mShed     *metrics.Meter
	mInflight *metrics.Gauge
	mWaiting  *metrics.Gauge
}

// LimiterOptions configure a Limiter.
type LimiterOptions struct {
	// Inflight is the concurrency bound (required, > 0).
	Inflight int
	// Queue bounds how many requests may wait for a slot (0 = none).
	Queue int
	// QueueWait bounds how long a queued request waits (0 = 100ms).
	QueueWait time.Duration
	// Registry receives the limiter's metrics (nil = private registry).
	Registry *metrics.Registry
	// Name prefixes the metric names, e.g. "socserved_step".
	Name string
}

// NewLimiter builds a Limiter.
func NewLimiter(opt LimiterOptions) *Limiter {
	if opt.Inflight <= 0 {
		opt.Inflight = 1
	}
	if opt.QueueWait <= 0 {
		opt.QueueWait = 100 * time.Millisecond
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if opt.Name == "" {
		opt.Name = "limiter"
	}
	return &Limiter{
		sem:       make(chan struct{}, opt.Inflight),
		queue:     int64(opt.Queue),
		queueWait: opt.QueueWait,
		mAdmitted: reg.Counter(opt.Name+"_admitted_total",
			"Requests admitted through the concurrency limiter."),
		mShed: reg.Meter(opt.Name+"_shed_total",
			"Requests shed with 429 by the admission limiter."),
		mInflight: reg.Gauge(opt.Name+"_inflight",
			"Requests currently holding an admission slot."),
		mWaiting: reg.Gauge(opt.Name+"_waiting",
			"Requests currently queued for an admission slot."),
	}
}

// Acquire claims an admission slot, waiting up to QueueWait if the queue
// has room. Reports whether the request was admitted; an admitted request
// must Release exactly once. A nil limiter admits everything.
func (l *Limiter) Acquire(ctx context.Context) bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		l.mInflight.Add(1)
		l.mAdmitted.Inc()
		return true
	default:
	}
	// Saturated: join the bounded wait queue or shed immediately.
	if l.queue <= 0 || l.waiting.Add(1) > l.queue {
		if l.queue > 0 {
			l.waiting.Add(-1)
		}
		l.mShed.Inc()
		return false
	}
	l.mWaiting.Add(1)
	t := time.NewTimer(l.queueWait)
	defer func() {
		t.Stop()
		l.waiting.Add(-1)
		l.mWaiting.Add(-1)
	}()
	select {
	case l.sem <- struct{}{}:
		l.mInflight.Add(1)
		l.mAdmitted.Inc()
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	l.mShed.Inc()
	return false
}

// Release frees an admission slot claimed by Acquire. Nil-safe.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	<-l.sem
	l.mInflight.Add(-1)
}

// retryAfterValue is the Retry-After header value sent with sheds: clients
// should back off about one admission-queue drain, which at any sane
// configuration is under a second — "1" is the smallest legal value.
var retryAfterValue = []string{"1"}

// WriteError writes an error response: a JSON object whose "error" field is
// the formatted message, served as application/json. The router tier writes
// its own errors through it too, so a client decodes every error body the
// same way whichever tier answered.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteShed writes the canonical 429 shed response (shared with the router
// tier, whose own limiter sheds with identical semantics).
func WriteShed(w http.ResponseWriter) {
	w.Header()["Retry-After"] = retryAfterValue
	WriteError(w, http.StatusTooManyRequests, "overloaded, retry later")
}
