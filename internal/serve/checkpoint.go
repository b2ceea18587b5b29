package serve

import (
	"fmt"
	"sync"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/metrics"
	"socrm/internal/snap"
)

// Durable checkpointing. The migration snapshot format (snapshot.go) is
// the checkpoint format: a Checkpointer periodically exports every session
// whose step count moved since its last checkpoint and streams the
// envelopes to a ckpt.Store (crash durability) and/or a ReplicaSink (warm
// standby on a peer). On restart, RecoverFromStore replays the store and
// re-imports each session; what a kill -9 loses is bounded by one
// checkpoint interval of steps per session.

// ReplicaSink receives the checkpoint stream for replication to a peer.
// Implementations must not block: the checkpointer runs on one goroutine
// and a slow peer must cost queue slots, not checkpoint cadence.
type ReplicaSink interface {
	// Push hands over one session snapshot. The sink owns data.
	Push(id string, data []byte)
	// Drop signals that the session no longer exists (closed or detached).
	Drop(id string)
}

// CheckpointerOptions configure a Checkpointer.
type CheckpointerOptions struct {
	// Store receives every checkpoint record; nil disables durability
	// (replication-only mode).
	Store *ckpt.Store
	// Sink receives the same stream for peer replication; nil disables.
	Sink ReplicaSink
	// Interval is the checkpoint cadence (default 1s). A crash loses at
	// most this much progress per session.
	Interval time.Duration
}

// Checkpointer drives periodic durable checkpoints of a Server's sessions.
type Checkpointer struct {
	srv *Server
	opt CheckpointerOptions

	mu   sync.Mutex
	last map[string]uint64 // session id -> steps covered by its last checkpoint

	stop chan struct{}
	done chan struct{}

	mRecords   *metrics.Counter
	mDeletes   *metrics.Counter
	mErrors    *metrics.Counter
	mFlushes   *metrics.Counter
	mDirty     *metrics.Gauge
	mLastFlush *metrics.Gauge
}

// NewCheckpointer builds a Checkpointer for srv. Start it with Start.
func NewCheckpointer(srv *Server, opt CheckpointerOptions) *Checkpointer {
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	reg := srv.reg
	return &Checkpointer{
		srv:  srv,
		opt:  opt,
		last: make(map[string]uint64),
		mRecords: reg.Counter("socserved_ckpt_records_total",
			"Session checkpoint records written since start."),
		mDeletes: reg.Counter("socserved_ckpt_deletes_total",
			"Checkpoint tombstones written for closed sessions."),
		mErrors: reg.Counter("socserved_ckpt_errors_total",
			"Checkpoint export/write failures since start."),
		mFlushes: reg.Counter("socserved_ckpt_flushes_total",
			"Checkpoint flush passes completed since start."),
		mDirty: reg.Gauge("socserved_ckpt_dirty_sessions",
			"Sessions with steps not yet covered by a checkpoint."),
		mLastFlush: reg.Gauge("socserved_ckpt_last_flush_unix",
			"Unix time of the last completed checkpoint flush."),
	}
}

// Start launches the background checkpoint loop.
func (c *Checkpointer) Start() {
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run(c.stop, c.done)
}

// Stop flushes once more and stops the loop. Safe to call once.
func (c *Checkpointer) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}

func (c *Checkpointer) run(stop, done chan struct{}) {
	defer close(done)
	// Poll faster than the flush cadence so closed sessions are tombstoned
	// early and the dirty gauge stays fresh; a poll is one cheap pass over
	// the registry.
	poll := c.opt.Interval / 4
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	if poll > time.Second {
		// A long flush interval must not blind the tombstone trigger.
		poll = time.Second
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	lastFlush := time.Now()
	for {
		select {
		case <-stop:
			c.Flush() // final flush: bound loss to the stop point, not the last tick
			return
		case <-t.C:
			dirty := c.dirtyCount()
			c.mDirty.Set(float64(dirty))
			due := time.Since(lastFlush) >= c.opt.Interval
			if (due && dirty > 0) || c.staleDeletes() {
				c.Flush()
				lastFlush = time.Now()
			} else if due {
				lastFlush = time.Now() // nothing to do; restart the interval
			}
		}
	}
}

// dirtyCount counts sessions whose step count moved past their last
// checkpoint. One registry pass, no allocation.
func (c *Checkpointer) dirtyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dirty := 0
	c.srv.sessions.forEach(func(sess *Session) {
		// Never-checkpointed sessions are dirty even at zero steps: a
		// created-but-idle session must survive a crash too.
		if covered, ok := c.last[sess.ID]; !ok || covered != sess.Steps() {
			dirty++
		}
	})
	return dirty
}

// staleDeletes reports whether the last map holds ids that no longer have
// a live session (closed or detached away) — tombstones owed to the store.
func (c *Checkpointer) staleDeletes() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.srv.sessions.forEach(func(sess *Session) {
		if _, tracked := c.last[sess.ID]; tracked {
			n++
		}
	})
	return n < len(c.last)
}

// Flush checkpoints every dirty session and tombstones every session that
// disappeared since the previous flush. Returns the number of records
// written (puts + deletes) and the first error encountered (the pass
// continues past per-session errors; a session that fails to export is
// simply stale until the next flush).
func (c *Checkpointer) Flush() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Plan against a stable cut of ids: export below works on ids, so a
	// session stepping or closing mid-flush is safe — it just lands in a
	// later flush.
	type item struct {
		id    string
		steps uint64
	}
	plan := make([]item, 0, 64)
	live := make(map[string]bool, len(c.last))
	c.srv.sessions.forEach(func(sess *Session) {
		live[sess.ID] = true
		if covered, ok := c.last[sess.ID]; !ok || covered != sess.Steps() {
			plan = append(plan, item{id: sess.ID, steps: sess.Steps()})
		}
	})

	var firstErr error
	wrote := 0
	for _, it := range plan {
		data, err := c.srv.ExportSession(it.id)
		if err != nil {
			// Session closed or detached between the cut and now; the
			// tombstone sweep below (or the next flush) settles it.
			continue
		}
		// Trust the snapshot's own step count, not the planning cut: the
		// session may have stepped in between and the snapshot covers it.
		_, _, steps, err := SnapshotMeta(data)
		if err != nil {
			steps = it.steps
		}
		if c.opt.Store != nil {
			if err := c.opt.Store.Append(it.id, data); err != nil {
				c.mErrors.Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("checkpoint %s: %w", it.id, err)
				}
				continue
			}
		}
		if c.opt.Sink != nil {
			c.opt.Sink.Push(it.id, data)
		}
		c.last[it.id] = steps
		c.mRecords.Inc()
		wrote++
	}
	for id := range c.last {
		if live[id] {
			continue
		}
		delete(c.last, id)
		if c.opt.Store != nil {
			if err := c.opt.Store.Delete(id); err != nil {
				c.mErrors.Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("tombstone %s: %w", id, err)
				}
				continue
			}
		}
		if c.opt.Sink != nil {
			c.opt.Sink.Drop(id)
		}
		c.mDeletes.Inc()
		wrote++
	}
	c.mFlushes.Inc()
	c.mLastFlush.Set(float64(time.Now().Unix()))
	return wrote, firstErr
}

// SnapshotMeta decodes just the envelope header of a session snapshot and
// returns its session id, epoch (fencing token) and step count — enough to
// index a checkpoint or resolve an import conflict without rebuilding the
// decider.
func SnapshotMeta(data []byte) (id string, epoch, steps uint64, err error) {
	h, err := decodeEnvelopeHeader(snap.NewDecoder(data))
	return h.id, h.epoch, h.steps, err
}

// RecoverFromStore replays a checkpoint store and re-imports every live
// session it holds, returning how many sessions were restored and skipped,
// the store's per-segment damage notes, and the first error. It is the one
// replay loop; a replayed session is
//   - skipped when it is already resident (a replica promoted and migrated
//     back before recovery finished);
//   - skipped and tombstoned in the store when liveElsewhere (nil = never)
//     reports another process hosting it live: that copy kept stepping and
//     outranks the checkpoint, and its owner checkpoints it now;
//   - not an error when its import answers 409: a concurrent import won.
func (s *Server) RecoverFromStore(store *ckpt.Store, liveElsewhere func(id string) bool) (restored, skipped int, damaged []string, err error) {
	var firstErr error
	damaged, rerr := store.Replay(func(id string, snapshot []byte) {
		if s.sessions.get(id) != nil {
			return
		}
		if liveElsewhere != nil && liveElsewhere(id) {
			skipped++
			if derr := store.Delete(id); derr != nil && firstErr == nil {
				firstErr = derr
			}
			return
		}
		if _, ierr := s.ImportSession(snapshot); ierr != nil {
			if statusOf(ierr) != 409 && firstErr == nil {
				firstErr = fmt.Errorf("recover %s: %w", id, ierr)
			}
			return
		}
		restored++
	})
	if rerr != nil {
		return restored, skipped, damaged, rerr
	}
	return restored, skipped, damaged, firstErr
}

// SetRecovering flips the recovery gate: while set, /readyz reports 503 so
// no router sends fresh traffic before the store replay finishes, and
// replica promotion is paused (recovered state outranks possibly-stale
// replicas for sessions this store owns).
func (s *Server) SetRecovering(v bool) { s.recovering.Store(v) }

// SetPeerReplicas installs the quorum-promotion hook after construction.
// The cluster replicator both needs the server's metrics registry and
// provides this hook, so one of the two must be wired late; call it before
// serving traffic (it is not synchronized against concurrent promotion).
func (s *Server) SetPeerReplicas(fn func(id string) []PeerReplica) { s.peerReplicas = fn }
