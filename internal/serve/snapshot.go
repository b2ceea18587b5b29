package serve

import (
	"fmt"
	"net/http"

	"socrm/internal/control"
	"socrm/internal/governor"
	"socrm/internal/il"
	"socrm/internal/snap"
	"socrm/internal/soc"
)

// Session snapshots make session state portable across processes: every
// piece of state a decision touches — the decider (policy network, a
// learner's optimizer momentum, RLS covariances, governor ramp state), the
// previous state fed to learning observers, and the telemetry counters —
// exports to one versioned, deterministic binary blob and imports on
// another backend whose subsequent decisions are bit-identical to a
// never-migrated control. This is the state layer of the cluster refactor:
// the router migrates sessions between backends purely through
// ExportSession/ImportSession.

// snapshotMagic brands a session snapshot ("SOCR", little-endian).
const snapshotMagic uint32 = 0x52434F53

// SnapshotVersion is the current session-snapshot format version. Importers
// reject any other version outright — a half-understood snapshot must never
// become a half-restored session. Version 2 added the session epoch (the
// fencing token) to the envelope, right after the policy name. Version 3
// carries state only: an offline-il policy without its all-zero momentum,
// an online-il learner without its constant update schedule, and a
// governor without its constant tuning.
const SnapshotVersion uint16 = 3

func encodeConfig(e *snap.Encoder, c soc.Config) {
	e.Int(c.LittleFreqIdx)
	e.Int(c.BigFreqIdx)
	e.Int(c.NLittle)
	e.Int(c.NBig)
}

func decodeConfig(d *snap.Decoder) soc.Config {
	return soc.Config{
		LittleFreqIdx: d.Int(),
		BigFreqIdx:    d.Int(),
		NLittle:       d.Int(),
		NBig:          d.Int(),
	}
}

// encodeSessionLocked writes the full session snapshot. The caller holds
// sess.mu, so the decider and telemetry fields are a consistent cut. The
// encoder is pre-sized from the session's previous envelope, which a
// steady session repeats byte for byte in length.
func (s *Server) encodeSessionLocked(sess *Session, e *snap.Encoder) error {
	e.Grow(sess.envLen)
	defer func() { sess.envLen = e.Len() }()
	e.U32(snapshotMagic)
	e.U16(SnapshotVersion)
	e.String(sess.ID)
	e.String(sess.Policy)
	e.U64(sess.epoch)
	e.U64(sess.steps)
	e.F64(sess.energyJ)
	encodeConfig(e, sess.lastCfg)
	e.Bool(sess.havePrev)
	if sess.havePrev {
		// prev is exactly what step() builds from telemetry: counters,
		// clamped config and thread count. Derived is a pure function of the
		// counters and is recomputed on import.
		c := &sess.prev.Counters
		e.F64(c.InstructionsRetired)
		e.F64(c.CPUCycles)
		e.F64(c.BranchMissPredPC)
		e.F64(c.L2Misses)
		e.F64(c.DataMemAccess)
		e.F64(c.NoncacheExtMemReq)
		e.F64(c.LittleUtil)
		e.F64(c.BigUtil)
		e.F64(c.ChipPower)
		encodeConfig(e, sess.prev.Config)
		e.Int(sess.prev.Threads)
	}
	switch dec := sess.dec.(type) {
	case *il.OnlineIL:
		dec.EncodeStateTo(e)
	case *il.OfflineDecider:
		pol, isMLP := dec.Policy.(*il.MLPPolicy)
		if !isMLP {
			return fmt.Errorf("session %s: offline policy %T is not snapshottable", sess.ID, dec.Policy)
		}
		pol.EncodeTo(e)
	case *governor.Interactive:
		cur, initialized := dec.State()
		encodeConfig(e, cur)
		e.Bool(initialized)
	case *governor.Ondemand, governor.Performance, governor.Powersave:
		// Stateless: the policy name is the whole snapshot.
	default:
		return fmt.Errorf("session %s: decider %T is not snapshottable", sess.ID, sess.dec)
	}
	return nil
}

// envelopeHeader is the front of a session envelope: enough to fence and
// order a copy of the session without decoding its decider.
type envelopeHeader struct {
	id, policy   string
	epoch, steps uint64
}

// decodeEnvelopeHeader reads magic, version, id, policy, epoch and steps —
// the part of an envelope SnapshotMeta and ImportSession both check.
func decodeEnvelopeHeader(d *snap.Decoder) (envelopeHeader, error) {
	if m := d.U32(); m != snapshotMagic {
		if err := d.Err(); err != nil {
			return envelopeHeader{}, err
		}
		return envelopeHeader{}, fmt.Errorf("not a session snapshot (magic %#x)", m)
	}
	if v := d.U16(); v != SnapshotVersion {
		return envelopeHeader{}, fmt.Errorf("snapshot version %d unsupported (this server speaks %d)", v, SnapshotVersion)
	}
	h := envelopeHeader{id: d.String(), policy: d.String(), epoch: d.U64(), steps: d.U64()}
	if err := d.Err(); err != nil {
		return envelopeHeader{}, err
	}
	if h.id == "" {
		return envelopeHeader{}, fmt.Errorf("snapshot carries no session id")
	}
	return h, nil
}

// decodeDecider rebuilds the per-kind decider payload on import.
func (s *Server) decodeDecider(policy string, d *snap.Decoder) (control.Decider, error) {
	switch policy {
	case PolicyOnlineIL:
		return il.DecodeOnlineILState(d, s.p)
	case PolicyOfflineIL:
		pol, err := il.DecodeMLPPolicy(d, s.p)
		if err != nil {
			return nil, err
		}
		return &il.OfflineDecider{P: s.p, Policy: pol}, nil
	case "ondemand":
		return governor.NewOndemand(s.p), nil
	case "interactive":
		g := governor.NewInteractive(s.p)
		cur := decodeConfig(d)
		g.SetState(cur, d.Bool())
		return g, nil
	case "performance":
		return governor.Performance{P: s.p}, nil
	case "powersave":
		return governor.Powersave{P: s.p}, nil
	}
	return nil, fmt.Errorf("unknown policy %s", quoteBounded(policy))
}

// ExportSession snapshots a live session without disturbing it. The session
// keeps serving afterwards; for a migration use DetachSession, which also
// closes the session so no step lands after the snapshot.
func (s *Server) ExportSession(id string) ([]byte, error) {
	sess := s.sessions.get(id)
	if sess == nil {
		return nil, apiErrorf(http.StatusNotFound, "no session %q", id)
	}
	var e snap.Encoder
	sess.mu.Lock()
	err := s.encodeSessionLocked(sess, &e)
	sess.mu.Unlock()
	if err != nil {
		return nil, apiErrorf(http.StatusUnprocessableEntity, "%v", err)
	}
	s.mSessionsExported.Inc()
	return e.Bytes(), nil
}

// DetachSession removes a session and returns its migration snapshot — the
// export half of a handoff. The sequence is the per-session handoff lock:
// remove from the registry (no new lookups resolve the id), mark the
// session closed (a step already holding the pointer fails cleanly and the
// caller retries against the new owner), then encode.
func (s *Server) DetachSession(id string) ([]byte, error) {
	sess := s.sessions.remove(id)
	if sess == nil {
		return nil, apiErrorf(http.StatusNotFound, "no session %q", id)
	}
	sess.close()
	var e snap.Encoder
	sess.mu.Lock()
	err := s.encodeSessionLocked(sess, &e)
	sess.mu.Unlock()
	s.mSessionsActive.Add(-1)
	if err != nil {
		// The session is gone either way — exporting an unsnapshottable
		// decider is a programming error surfaced loudly, not silently.
		s.mSessionsClosed.Inc()
		return nil, apiErrorf(http.StatusUnprocessableEntity, "%v", err)
	}
	// The session left at this epoch; anything older that shows up later
	// (a stale snapshot replayed by a racing router) must not resurrect it.
	s.raiseFence(id, sess.epoch)
	s.mSessionsExported.Inc()
	return e.Bytes(), nil
}

// ---- Epoch fences ----

// maxFences bounds the fence map. Fences are tombstones for session
// generations, one entry per session that ever changed hands on this
// server; past the bound, arbitrary entries are evicted — an evicted fence
// only weakens protection against a replay of a long-gone snapshot, never
// correctness of live traffic.
const maxFences = 8192

// fenceFor returns the fence epoch recorded for id, if any. An import is
// admitted only when its post-import epoch exceeds the fence.
func (s *Server) fenceFor(id string) (uint64, bool) {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	f, ok := s.fences[id]
	return f, ok
}

// raiseFence records that a copy of id at the given epoch exists or
// existed; it never lowers an existing fence.
func (s *Server) raiseFence(id string, epoch uint64) {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	if cur, ok := s.fences[id]; !ok || epoch > cur {
		s.fences[id] = epoch
	}
	if len(s.fences) > maxFences {
		for k := range s.fences {
			delete(s.fences, k)
			if len(s.fences) <= maxFences/2 {
				break
			}
		}
	}
}

// fenceLive removes a resident session copy that fresher state (a
// higher-epoch import or replica) has outranked. The copy is closed so an
// in-flight step fails cleanly, and the fence is raised so its own
// generation cannot come back.
func (s *Server) fenceLive(cur *Session) {
	removed := s.sessions.remove(cur.ID)
	if removed == nil {
		return
	}
	if removed != cur {
		// Someone already replaced the stale copy; the resident one is not
		// ours to fence — put it back.
		s.sessions.insert(removed)
		return
	}
	removed.close()
	s.raiseFence(removed.ID, removed.epoch)
	s.mSessionsFenced.Inc()
	s.mSessionsActive.Add(-1)
}

// ImportSession restores a session from a snapshot produced by
// ExportSession/DetachSession. The restored session answers its next step
// exactly as the source would have. The direct call accepts even while
// draining — it is the recovery path when a drain's handoff fails and the
// session must come back home; the HTTP handler is what refuses remote
// imports during a drain.
//
// Every import is an ownership transfer, so the restored session lives at
// the snapshot's epoch + 1 and the local fence is raised to that epoch:
// importing the same envelope twice (two routers racing the same failover)
// fails the second time with 409, and any import whose epoch falls at or
// below the fence is stale by definition — a fresher copy of the session is
// or was live somewhere — and is rejected and tombstoned rather than
// resurrected. A resident live copy older than the incoming epoch is the
// reverse case: the resident copy is the stale one, and it is fenced off
// (removed) so the fresh import takes over.
func (s *Server) ImportSession(data []byte) (CreateResponse, error) {
	d := snap.NewDecoder(data)
	h, err := decodeEnvelopeHeader(d)
	if err != nil {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	id, policy, epoch := h.id, h.policy, h.epoch
	energyJ := d.F64()
	lastCfg := decodeConfig(d)
	havePrev := d.Bool()
	if err := d.Err(); err != nil {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	liveEpoch := epoch + 1
	if f, fenced := s.fenceFor(id); fenced && liveEpoch <= f {
		s.mStaleImports.Inc()
		return CreateResponse{}, apiErrorf(http.StatusConflict,
			"stale-epoch import for session %q: snapshot epoch %d, fenced at %d", id, epoch, f)
	}
	sess := &Session{ID: id, Policy: policy}
	sess.setEpoch(liveEpoch)
	sess.steps = h.steps
	sess.energyJ = energyJ
	sess.lastCfg = lastCfg
	sess.havePrev = havePrev
	if havePrev {
		c := &sess.prev.Counters
		c.InstructionsRetired = d.F64()
		c.CPUCycles = d.F64()
		c.BranchMissPredPC = d.F64()
		c.L2Misses = d.F64()
		c.DataMemAccess = d.F64()
		c.NoncacheExtMemReq = d.F64()
		c.LittleUtil = d.F64()
		c.BigUtil = d.F64()
		c.ChipPower = d.F64()
		sess.prev.Config = decodeConfig(d)
		sess.prev.Threads = d.Int()
		sess.prev.Derived = c.Derived()
	}
	dec, err := s.decodeDecider(policy, d)
	if err != nil {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	if err := d.Err(); err != nil {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	if d.Remaining() != 0 {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest,
			"snapshot carries %d trailing bytes", d.Remaining())
	}
	sess.dec = dec
	for attempt := 0; ; attempt++ {
		switch s.sessions.insert(sess) {
		case insertDup:
			cur := s.sessions.get(id)
			if cur == nil {
				// Raced a concurrent remove between insert and get; try again.
				if attempt < 8 {
					continue
				}
				return CreateResponse{}, apiErrorf(http.StatusConflict,
					"session %q is mid-handoff", id)
			}
			if cur.epoch >= liveEpoch {
				s.mStaleImports.Inc()
				s.raiseFence(id, cur.epoch)
				return CreateResponse{}, apiErrorf(http.StatusConflict,
					"session %q already exists at epoch %d (import would be %d)", id, cur.epoch, liveEpoch)
			}
			// The resident copy is the stale one: fence it off and take over.
			s.fenceLive(cur)
			if attempt < 8 {
				continue
			}
			return CreateResponse{}, apiErrorf(http.StatusConflict,
				"session %q import kept losing insert races", id)
		case insertFull:
			return CreateResponse{}, apiErrorf(http.StatusServiceUnavailable,
				"session limit %d reached", s.maxSessions)
		}
		break
	}
	// Fence at the new live epoch: a second import of the same envelope
	// (liveEpoch <= fence) is now stale even after this copy moves on.
	s.raiseFence(id, liveEpoch)
	s.mSessionsImported.Inc()
	s.mSessionsActive.Add(1)
	return CreateResponse{ID: id, Policy: policy, Start: lastCfg}, nil
}

// SessionIDs returns the ids of every live session — what a drain walks.
func (s *Server) SessionIDs() []string {
	ids := make([]string, 0, s.sessions.len())
	s.sessions.forEach(func(sess *Session) { ids = append(ids, sess.ID) })
	return ids
}

// BeginDrain stops admission: /readyz flips unready, and new sessions
// (created or imported) are refused. Existing sessions keep stepping so a
// drain can hand them off one at a time without a stop-the-world.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// ---- HTTP layer ----

// handleDetach serves POST /v1/sessions/{id}/detach: remove the session and
// return its migration snapshot. The caller owns the session afterwards.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	data, err := s.DetachSession(r.PathValue("id"))
	if err != nil {
		WriteError(w, statusOf(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// handleImport serves POST /v1/sessions/import with a binary snapshot body.
// Imports are admission and are refused while draining, like creates.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	data, ok := ReadBody(w, r)
	if !ok {
		return
	}
	resp, err := s.ImportSession(data)
	if err != nil {
		WriteError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// sessionList is the body of GET /admin/sessions.
type sessionList struct {
	Sessions []string `json:"sessions"`
	Draining bool     `json:"draining"`
}

// handleSessionList serves GET /admin/sessions: the live session ids, which
// a router or drainer enumerates to plan migrations.
func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sessionList{Sessions: s.SessionIDs(), Draining: s.draining.Load()})
}
