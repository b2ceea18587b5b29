package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"socrm/internal/metrics"
)

// Warm-standby replication, receive side. A backend's checkpoint stream is
// pushed to the K ring nodes that would own each session if the pusher died
// (POST /v1/replica/{id}); the receiver parks the raw snapshot bytes here
// without importing them. When a step arrives for a session this backend
// does not host but holds a replica of, the replica is promoted — imported
// through the ordinary snapshot path — and the step proceeds. Promotion
// happens only on step (POST) traffic: GET lookups must stay side-effect
// free because the router's locate() probes every backend while a session
// is legitimately alive elsewhere mid-handoff.
//
// Every replica carries the session epoch (fencing token), which makes
// replication the cluster's anti-entropy channel: a push whose epoch is
// older than the receiver's live copy is rejected with the live epoch in
// the response, telling the pusher its own copy is the stale one; a push
// whose epoch is newer fences the receiver's live copy off. Either way an
// asymmetric partition heals toward exactly one live copy per session.

// Response headers the replication and step paths use to carry fencing
// state. The router counts promotions from these to expose cluster-wide
// totals without a second round trip.
const (
	HeaderPromoted      = "X-Socrm-Promoted"
	HeaderPromotedStale = "X-Socrm-Promoted-Stale"
	// HeaderEpoch carries the session epoch of the answering copy (step
	// responses), the rejecting live copy (stale replica pushes), or the
	// parked replica (replica GETs).
	HeaderEpoch = "X-Socrm-Epoch"
	// HeaderSteps carries the step count of a parked replica on GETs.
	HeaderSteps = "X-Socrm-Steps"
)

// replica is one parked snapshot, with its envelope header pre-parsed so
// epoch comparisons never re-decode.
type replica struct {
	data  []byte
	epoch uint64
	steps uint64
	at    time.Time // local receive time; staleness is judged against this
}

// replicaStore holds parked snapshots keyed by session id. Lookups happen
// only on the session-miss path, so a plain mutex is plenty.
type replicaStore struct {
	mu sync.Mutex
	m  map[string]replica

	mHeld          *metrics.Gauge
	mBytes         *metrics.Gauge
	mReceived      *metrics.Counter
	mPromoted      *metrics.Counter
	mPromotedStale *metrics.Counter
	mPromoteErrors *metrics.Counter
	mStalePuts     *metrics.Counter
	mStaleStandby  *metrics.Counter
}

func newReplicaStore(reg *metrics.Registry) *replicaStore {
	return &replicaStore{
		m: make(map[string]replica),
		mHeld: reg.Gauge("socserved_replicas_held",
			"Warm-standby session replicas currently parked on this backend."),
		mBytes: reg.Gauge("socserved_replicas_bytes",
			"Total bytes of parked session replicas."),
		mReceived: reg.Counter("socserved_replicas_received_total",
			"Replica snapshots received from peers since start."),
		mPromoted: reg.Counter("socserved_replica_promotions_total",
			"Replicas promoted to live sessions on first step after an owner died."),
		mPromotedStale: reg.Counter("socserved_replica_promotions_stale_total",
			"Promotions whose replica was older than the staleness bound."),
		mPromoteErrors: reg.Counter("socserved_replica_promotion_errors_total",
			"Replica promotions that failed to import."),
		mStalePuts: reg.Counter("socserved_replica_stale_puts_total",
			"Replica pushes rejected because this backend holds fresher state for the session."),
		mStaleStandby: reg.Counter("socserved_replica_stale_standby_total",
			"Promotions where a peer's replica outranked the local standby (local standby was stale)."),
	}
}

// put parks a replica if it is at least as fresh as whatever is already
// parked (epoch first, steps as tiebreak). Reports whether it was kept.
func (rs *replicaStore) put(id string, rep replica) bool {
	rs.mu.Lock()
	prev, had := rs.m[id]
	if had && (prev.epoch > rep.epoch || (prev.epoch == rep.epoch && prev.steps > rep.steps)) {
		rs.mu.Unlock()
		rs.mStalePuts.Inc()
		return false
	}
	rs.m[id] = rep
	if !had {
		rs.mHeld.Add(1)
	} else {
		rs.mBytes.Add(-float64(len(prev.data)))
	}
	rs.mBytes.Add(float64(len(rep.data)))
	rs.mu.Unlock()
	rs.mReceived.Inc()
	return true
}

func (rs *replicaStore) drop(id string) bool {
	rs.mu.Lock()
	prev, had := rs.m[id]
	if had {
		delete(rs.m, id)
		rs.mHeld.Add(-1)
		rs.mBytes.Add(-float64(len(prev.data)))
	}
	rs.mu.Unlock()
	return had
}

// take removes and returns the replica for id, if any. The caller owns the
// bytes; a failed promotion does not put them back (reimporting bytes that
// already failed would loop forever).
func (rs *replicaStore) take(id string) (replica, bool) {
	rs.mu.Lock()
	rep, ok := rs.m[id]
	if ok {
		delete(rs.m, id)
		rs.mHeld.Add(-1)
		rs.mBytes.Add(-float64(len(rep.data)))
	}
	rs.mu.Unlock()
	return rep, ok
}

// peek returns the replica for id without removing it.
func (rs *replicaStore) peek(id string) (replica, bool) {
	rs.mu.Lock()
	rep, ok := rs.m[id]
	rs.mu.Unlock()
	return rep, ok
}

// replicaStaleAfter is how old a parked replica may be before its promotion
// counts as stale in metrics. Promotion proceeds either way — a stale
// learner beats a cold-started one — the counter exists so operators can
// see when the checkpoint interval is too coarse for their failure rate.
const replicaStaleAfter = 5 * time.Second

// PeerReplica is one peer's parked replica of a session, as returned by the
// SetPeerReplicas hook during quorum promotion.
type PeerReplica struct {
	Data  []byte
	Epoch uint64
	Steps uint64
}

// PutReplica parks a snapshot as a warm standby for id. It does not touch
// the live session registry. Reports whether the replica was kept (false:
// unreadable snapshot, or staler than what is already parked).
func (s *Server) PutReplica(id string, data []byte) bool {
	metaID, epoch, steps, err := SnapshotMeta(data)
	if err != nil || metaID != id {
		return false
	}
	return s.replicas.put(id, replica{data: data, epoch: epoch, steps: steps, at: time.Now()})
}

// DropReplica discards a parked replica (the owner closed the session).
func (s *Server) DropReplica(id string) bool { return s.replicas.drop(id) }

// ReplicaCount returns how many replicas are parked.
func (s *Server) ReplicaCount() int {
	s.replicas.mu.Lock()
	defer s.replicas.mu.Unlock()
	return len(s.replicas.m)
}

// promoteForStep adopts the parked replica for id, if one exists, and
// returns the now-live session. Called only after a registry miss on a
// step path; GET paths must never promote (see package comment above).
// Returns promoted=false when there was nothing to promote or the import
// lost a race (sess may still be non-nil in the race case).
//
// With a SetPeerReplicas hook installed, promotion is quorum-style: the
// reachable peers are asked for their replica of the session and the
// freshest epoch wins (steps break ties). A local standby that loses to a
// peer — its queue dropped records the other successor kept — is counted
// as stale-standby on /metrics.
func (s *Server) promoteForStep(id string) (sess *Session, promoted, stale bool) {
	if s.draining.Load() || s.recovering.Load() {
		return nil, false, false
	}
	rep, ok := s.replicas.take(id)
	if !ok {
		return nil, false, false
	}
	if s.peerReplicas != nil {
		fromPeer := false
		for _, pr := range s.peerReplicas(id) {
			if pr.Data == nil {
				continue
			}
			if pr.Epoch > rep.epoch || (pr.Epoch == rep.epoch && pr.Steps > rep.steps) {
				rep = replica{data: pr.Data, epoch: pr.Epoch, steps: pr.Steps, at: time.Now()}
				fromPeer = true
			}
		}
		if fromPeer {
			s.replicas.mStaleStandby.Inc()
		}
	}
	stale = time.Since(rep.at) > replicaStaleAfter
	if _, err := s.ImportSession(rep.data); err != nil {
		if statusOf(err) == http.StatusConflict {
			// Lost a race with a concurrent import/promotion; the session is
			// live — serve it, credit the promotion to the winner.
			return s.sessions.get(id), false, false
		}
		s.replicas.mPromoteErrors.Inc()
		return nil, false, false
	}
	s.replicas.mPromoted.Inc()
	if stale {
		s.replicas.mPromotedStale.Inc()
	}
	return s.sessions.get(id), true, stale
}

// FenceStale records that a fresher copy of id (at the reported epoch)
// lives elsewhere, fencing off the local live copy if it is older. This is
// the landing point for replication's stale-push signal: when a peer 409s
// our replica push with its own epoch, our copy lost the partition race and
// must stop answering. An equal or lower reported epoch fences nothing —
// ties resolve when either copy steps ahead.
func (s *Server) FenceStale(id string, epoch uint64) {
	if live := s.sessions.get(id); live != nil && live.epoch < epoch {
		s.fenceLive(live)
	}
	s.raiseFence(id, epoch)
}

// ---- HTTP layer ----

// handleReplicaPut serves POST /v1/replica/{id}: park a snapshot pushed by
// the session's current owner. Accepted even while draining — replicas are
// not admission, they only matter if this node outlives the pusher.
//
// The push is also the fencing gossip between copies of a session that an
// asymmetric partition split apart:
//
//   - pushed epoch below this backend's live copy → 409 with the live
//     epoch in X-Socrm-Epoch, so the pusher can fence its stale copy;
//   - pushed epoch above the live copy → the local copy is the stale one
//     and is fenced off here, then the replica parks as usual;
//   - equal epoch and steps → the receiver keeps its copy and answers 409
//     without an epoch advantage; the tie breaks when either copy steps.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" || len(id) > maxSessionID {
		WriteError(w, http.StatusBadRequest, "bad replica id")
		return
	}
	data, ok := ReadBody(w, r)
	if !ok {
		return
	}
	// Cheap sanity check before parking: a torn push must not become a
	// failed promotion at the worst possible moment.
	metaID, epoch, steps, err := SnapshotMeta(data)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if metaID != id {
		WriteError(w, http.StatusBadRequest, "snapshot is for session %q, not %q", metaID, id)
		return
	}
	if live := s.sessions.get(id); live != nil {
		switch {
		case live.epoch > epoch || (live.epoch == epoch && live.Steps() >= steps):
			// This backend's live copy outranks the pushed state: the pusher
			// is replicating a stale generation. Tell it which epoch rules.
			s.replicas.mStalePuts.Inc()
			w.Header().Set(HeaderEpoch, strconv.FormatUint(live.epoch, 10))
			WriteError(w, http.StatusConflict,
				"session %q is live here at epoch %d (push carries %d)", id, live.epoch, epoch)
			return
		default:
			// The pushed state is fresher than the local live copy: this
			// backend lost a failover race it never saw. Fence the stale
			// copy; the replica parks below and can promote on next touch.
			s.fenceLive(live)
		}
	}
	if !s.replicas.put(id, replica{data: data, epoch: epoch, steps: steps, at: time.Now()}) {
		w.WriteHeader(http.StatusNoContent) // stale push; parked copy is fresher
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaDelete serves DELETE /v1/replica/{id}.
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	if s.DropReplica(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	WriteError(w, http.StatusNotFound, "no replica %q", r.PathValue("id"))
}

// handleReplicaGet serves GET /v1/replica/{id}: the parked replica bytes
// with epoch/steps headers, for peers running a quorum promotion. Reads do
// not disturb the parked copy.
func (s *Server) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.replicas.peek(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no replica %q", r.PathValue("id"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderEpoch, strconv.FormatUint(rep.epoch, 10))
	h.Set(HeaderSteps, strconv.FormatUint(rep.steps, 10))
	_, _ = w.Write(rep.data)
}
