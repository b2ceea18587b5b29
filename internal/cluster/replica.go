package cluster

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"socrm/internal/metrics"
	"socrm/internal/serve"
)

// Replicator is the push side of warm-standby replication: it implements
// serve.ReplicaSink, so a backend's Checkpointer streams every checkpoint
// record here, and each record is forwarded to the Fanout peers that would
// own the session if this backend (and then its successors) died —
// Successors(id, K) on a ring built from the peers without self, exactly
// the order in which the router's failover re-ring will try the session's
// steps. Per-peer queues are bounded and drop-oldest: a slow or dead
// standby costs replica freshness (tracked by the staleness gauge), never
// checkpoint cadence or step latency.
//
// Replication doubles as the fencing gossip channel: a peer that rejects a
// push because it holds fresher live state for the session answers 409 with
// its epoch, and the OnStale hook lets the owning server fence its own
// stale copy — how a backend on the losing side of an asymmetric partition
// finds out it lost.
type ReplicatorOptions struct {
	// Self is this backend's advertised URL (excluded from targets).
	Self string
	// Peers are all backend URLs, self included (it is filtered out).
	Peers []string
	// Fanout is how many ring successors receive each record (0 = 2, the
	// quorum-standby default; clamped to the peer count). One record on K
	// peers survives K-1 simultaneous standby failures.
	Fanout int
	// QueueSize bounds each per-peer queue in records (0 = 256).
	QueueSize int
	// Client performs the pushes and replica fetches through the cluster's
	// shared peer call (nil = 10s-timeout client).
	Client *http.Client
	// CallTimeout bounds each push (0 = 5s).
	CallTimeout time.Duration
	// OnStale is invoked when a peer rejects a push because it holds the
	// session live at a fresher epoch — the signal that this backend's copy
	// is the stale side of a healed partition. Called from push workers;
	// must be cheap and re-entrant. nil ignores the signal.
	OnStale func(id string, epoch uint64)
	// Registry receives the replicator's metrics (nil = private registry).
	Registry *metrics.Registry
}

type repItem struct {
	id   string
	data []byte // nil = tombstone (DELETE)
	enq  time.Time
}

// Replicator fans the checkpoint stream out to standby peers.
type Replicator struct {
	opt  ReplicatorOptions
	ring *Ring
	peer peer

	mu       sync.Mutex
	queues   map[string]chan repItem
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mPushed    *metrics.Counter
	mErrors    *metrics.Counter
	mDropped   *metrics.Meter
	mStale     *metrics.Counter
	mStaleness *metrics.Gauge
	mDepth     *metrics.Gauge
}

// NewReplicator builds a replicator. Call Stop to flush and stop workers.
func NewReplicator(opt ReplicatorOptions) *Replicator {
	if opt.QueueSize <= 0 {
		opt.QueueSize = 256
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	peers := make([]string, 0, len(opt.Peers))
	for _, p := range opt.Peers {
		if p != "" && p != opt.Self {
			peers = append(peers, p)
		}
	}
	if opt.Fanout <= 0 {
		opt.Fanout = 2
	}
	opt.Fanout = min(opt.Fanout, len(peers))
	r := &Replicator{
		opt:    opt,
		ring:   NewRing(peers),
		peer:   newPeer(opt.Client, opt.CallTimeout),
		queues: make(map[string]chan repItem, len(peers)),
		stop:   make(chan struct{}),
		mPushed: reg.Counter("socserved_replica_pushed_total",
			"Replica records pushed to standby peers."),
		mErrors: reg.Counter("socserved_replica_push_errors_total",
			"Replica pushes that failed (peer down or refused)."),
		mDropped: reg.Meter("socserved_replica_queue_dropped_total",
			"Replica records dropped oldest-first from a full peer queue."),
		mStale: reg.Counter("socserved_replica_push_stale_total",
			"Pushes a peer rejected because it holds the session live at a fresher epoch."),
		mStaleness: reg.Gauge("socserved_replica_staleness_seconds",
			"Age of the most recently dropped replica record — how stale the standby may be."),
		mDepth: reg.Gauge("socserved_replica_queue_depth",
			"Replica records currently queued across all peers."),
	}
	for _, p := range peers {
		q := make(chan repItem, opt.QueueSize)
		r.queues[p] = q
		r.wg.Add(1)
		go r.worker(p, q)
	}
	return r
}

// Fanout returns the resolved standby count per session.
func (r *Replicator) Fanout() int { return r.opt.Fanout }

// Push queues one snapshot for the session's standbys. Never blocks: a full
// queue drops its oldest record first (the snapshot being queued is newer
// by construction).
func (r *Replicator) Push(id string, data []byte) {
	r.enqueue(repItem{id: id, data: data, enq: time.Now()})
}

// Drop queues a tombstone so the standbys discard their replicas.
func (r *Replicator) Drop(id string) {
	r.enqueue(repItem{id: id, enq: time.Now()})
}

func (r *Replicator) enqueue(it repItem) {
	for _, target := range r.ring.Successors(it.id, r.opt.Fanout) {
		r.mu.Lock()
		q, exists := r.queues[target]
		r.mu.Unlock()
		if !exists {
			continue
		}
		for {
			select {
			case q <- it:
				r.mDepth.Add(1)
			default:
				select {
				case old := <-q:
					r.mDepth.Add(-1)
					r.mDropped.Inc()
					r.mStaleness.Set(time.Since(old.enq).Seconds())
				default:
				}
				continue
			}
			break
		}
	}
}

// Stop drains nothing further and stops the workers; queued records are
// abandoned (they describe state the checkpoint store also holds).
// Idempotent.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Replicator) worker(peer string, q chan repItem) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case it := <-q:
			r.mDepth.Add(-1)
			r.send(peer, it)
		}
	}
}

func (r *Replicator) send(peer string, it repItem) {
	method, contentType := http.MethodPost, "application/octet-stream"
	if it.data == nil {
		method, contentType = http.MethodDelete, ""
	}
	_, status, hdr, err := r.peer.call(context.Background(), method, peer, "/v1/replica/"+it.id, it.data, contentType)
	if err != nil {
		r.mErrors.Inc()
		return
	}
	switch status {
	case http.StatusNoContent, http.StatusOK:
		r.mPushed.Inc()
	case http.StatusNotFound:
		// Deleting a replica the peer never held is a success for our
		// purposes: the end state (no replica) is what was asked for.
		if it.data == nil {
			r.mPushed.Inc()
			return
		}
		r.mErrors.Inc()
	case http.StatusConflict:
		// The peer holds the session live at a fresher (or equal) epoch:
		// this push described a stale copy. Report the peer's epoch so the
		// owner can fence its side; an equal-epoch 409 carries no epoch
		// advantage and OnStale's epoch check ignores it.
		if it.data != nil {
			r.mStale.Inc()
			if r.opt.OnStale != nil {
				if e, perr := strconv.ParseUint(hdr.Get(serve.HeaderEpoch), 10, 64); perr == nil {
					r.opt.OnStale(it.id, e)
				}
			}
			return
		}
		r.mErrors.Inc()
	default:
		r.mErrors.Inc()
	}
}

// PeerReplicas fetches the parked replicas of id from the session's standby
// peers — the serve.Options.PeerReplicas hook for quorum promotion. Each
// standby is asked over GET /v1/replica/{id}; unreachable peers and misses
// are simply absent from the result (promotion proceeds on what answered).
func (r *Replicator) PeerReplicas(id string) []serve.PeerReplica {
	peers := r.ring.Successors(id, r.opt.Fanout)
	if len(peers) == 0 {
		return nil
	}
	out := make([]serve.PeerReplica, 0, len(peers))
	for _, peer := range peers {
		data, status, hdr, err := r.peer.call(context.Background(), http.MethodGet, peer, "/v1/replica/"+id, nil, "")
		if err != nil || status != http.StatusOK || len(data) == 0 {
			continue
		}
		epoch, _ := strconv.ParseUint(hdr.Get(serve.HeaderEpoch), 10, 64)
		steps, _ := strconv.ParseUint(hdr.Get(serve.HeaderSteps), 10, 64)
		out = append(out, serve.PeerReplica{Data: data, Epoch: epoch, Steps: steps})
	}
	return out
}
