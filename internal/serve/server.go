package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socrm/internal/control"
	"socrm/internal/governor"
	"socrm/internal/il"
	"socrm/internal/metrics"
	"socrm/internal/soc"
)

// Options configure a Server.
type Options struct {
	Platform *soc.Platform
	// Store supplies persisted IL policies; nil disables the offline-il,
	// offline-tree and online-il session policies (heuristic governors
	// still work).
	Store *PolicyStore
	// Models is the warm-started online-model template cloned into every
	// online-il session; nil disables online-il sessions.
	Models *il.OnlineModels
	// MaxSessions bounds concurrent sessions (0 = default 1024). Creates
	// beyond the bound are refused with 503 instead of letting an
	// over-eager client grow the heap without limit.
	MaxSessions int
	// Shards is the session-registry shard count (rounded up to a power of
	// two; 0 = sized from GOMAXPROCS). One shard degenerates to the old
	// single-mutex registry — useful as a contention baseline.
	Shards int
	// SeedBase decorrelates per-session learners: session n trains with
	// seed SeedBase+n unless the create request carries an explicit seed.
	SeedBase int64
	// StepInflight bounds concurrently admitted step/batch HTTP requests
	// (0 = unlimited). Beyond it, up to StepQueue requests wait briefly;
	// everything else is shed with 429 + Retry-After instead of queueing
	// without bound — under overload the service degrades, it never
	// collapses into timeouts.
	StepInflight int
	// StepQueue bounds requests waiting for an admission slot once
	// StepInflight is saturated (0 = no waiting: immediate 429).
	StepQueue int
	// StepQueueWait bounds how long a queued request waits for a slot
	// before being shed (0 = default 100ms).
	StepQueueWait time.Duration
}

// Server is the governor-as-a-service HTTP daemon state.
type Server struct {
	p           *soc.Platform
	store       *PolicyStore
	models      *il.OnlineModels
	maxSessions int
	seedBase    int64

	sessions *registry
	nextID   atomic.Int64

	// draining stops admission (creates and imports) once a drain or
	// graceful shutdown begins; existing sessions keep stepping so they can
	// be handed off one at a time.
	draining atomic.Bool

	// recovering holds /readyz false (and pauses replica promotion) while
	// a restarted backend replays its checkpoint store.
	recovering atomic.Bool

	// replicas parks warm-standby snapshots pushed by peers; a step for a
	// parked id promotes it to a live session (replica.go).
	replicas *replicaStore

	// peerReplicas, when set (SetPeerReplicas), is consulted on promotion so
	// the freshest replica among reachable peers wins, not just the local
	// one.
	peerReplicas func(id string) []PeerReplica

	// fences maps session id -> highest epoch known for it here; imports
	// whose post-import epoch would not exceed the fence are stale
	// (snapshot.go). Guards the two-routers-racing-one-failover case.
	fenceMu sync.Mutex
	fences  map[string]uint64

	// limiter sheds step/batch requests beyond the admission bound; nil
	// admits everything (standalone default).
	limiter *Limiter

	reg               *metrics.Registry
	mSessionsActive   *metrics.Gauge
	mSessionsTotal    *metrics.Counter
	mSessionsClosed   *metrics.Counter
	mSessionsExported *metrics.Counter
	mSessionsImported *metrics.Counter
	mSteps            *metrics.Counter
	mStepErrors       *metrics.Counter
	mReloads          *metrics.Counter
	mPolicyUpdates    *metrics.Gauge
	mEnergy           *metrics.Counter
	mLatency          *metrics.Histogram
	mSessionsFenced   *metrics.Counter
	mStaleImports     *metrics.Counter
}

// New returns a Server ready to serve.
func New(opt Options) *Server {
	if opt.Platform == nil {
		opt.Platform = soc.NewXU3()
	}
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 1024
	}
	reg := metrics.NewRegistry()
	srv := &Server{
		p:           opt.Platform,
		store:       opt.Store,
		models:      opt.Models,
		maxSessions: opt.MaxSessions,
		seedBase:    opt.SeedBase,
		sessions:    newRegistry(opt.Shards, opt.MaxSessions),
		reg:         reg,
		replicas:    newReplicaStore(reg),
		fences:      make(map[string]uint64),
		mSessionsActive: reg.Gauge("socserved_sessions_active",
			"Governor sessions currently open."),
		mSessionsTotal: reg.Counter("socserved_sessions_created_total",
			"Governor sessions created since start."),
		mSessionsClosed: reg.Counter("socserved_sessions_closed_total",
			"Governor sessions closed since start."),
		mSessionsExported: reg.Counter("socserved_sessions_exported_total",
			"Session snapshots exported (live exports and migration detaches)."),
		mSessionsImported: reg.Counter("socserved_sessions_imported_total",
			"Sessions restored from migration snapshots."),
		mSteps: reg.Counter("socserved_steps_total",
			"Telemetry steps decided since start."),
		mStepErrors: reg.Counter("socserved_step_errors_total",
			"Step requests rejected since start."),
		mReloads: reg.Counter("socserved_policy_reloads_total",
			"Successful policy hot reloads since start."),
		mPolicyUpdates: reg.Gauge("socserved_policy_updates",
			"Incremental online-IL policy updates across open sessions."),
		mEnergy: reg.Counter("socserved_energy_joules_total",
			"Client-reported energy accounted across all steps."),
		mLatency: reg.Histogram("socserved_decide_latency_seconds",
			"Per-decision latency of the policy step path."),
		mSessionsFenced: reg.Counter("socserved_sessions_fenced_total",
			"Stale live session copies removed after fresher-epoch state appeared (split-brain healed)."),
		mStaleImports: reg.Counter("socserved_stale_imports_total",
			"Imports rejected because their epoch was at or below the local fence."),
	}
	if opt.StepInflight > 0 {
		srv.limiter = NewLimiter(LimiterOptions{
			Inflight: opt.StepInflight,
			Queue:    opt.StepQueue,
			QueueWait: func() time.Duration {
				if opt.StepQueueWait > 0 {
					return opt.StepQueueWait
				}
				return 100 * time.Millisecond
			}(),
			Registry: reg,
			Name:     "socserved_step",
		})
	}
	return srv
}

// Close releases nothing. Online learners retrain inline on the goroutine
// that steps them, so a Server holds no training workers; Close stays so
// that embedders which pair New with Close keep compiling.
func (s *Server) Close() {}

// Reload hot-swaps the persisted policy for new sessions. Both the
// /admin/reload endpoint and the daemon's SIGHUP handler land here so the
// reload counter stays truthful either way. In-flight sessions keep the
// policy generation they were created with.
func (s *Server) Reload() error {
	if s.store == nil {
		return fmt.Errorf("serve: no policy store configured")
	}
	if err := s.store.Load(); err != nil {
		return err
	}
	s.mReloads.Inc()
	return nil
}

// Policies a session may request.
const (
	PolicyOfflineIL   = "offline-il"
	PolicyOfflineTree = "offline-tree"
	PolicyOnlineIL    = "online-il"
)

// apiError is an error with an HTTP status, so the direct-call API and the
// HTTP handlers agree on failure semantics.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps an error to its HTTP status (500 for non-API errors).
func statusOf(err error) int {
	if ae, isAPI := err.(*apiError); isAPI {
		return ae.status
	}
	return http.StatusInternalServerError
}

// newDecider builds a fresh decider for one session. The MLP policy's
// inference path reuses per-policy scratch buffers (the zero-allocation
// hot path), so every session — offline or online — gets its own clone;
// the tree policy is stateless at inference time and stays shared. The
// online learner additionally clones the models so its training never
// touches another session.
func (s *Server) newDecider(policy string, seed int64) (control.Decider, error) {
	switch policy {
	case PolicyOfflineIL:
		if s.store == nil {
			return nil, fmt.Errorf("policy %q needs a policy file (-policy-file)", policy)
		}
		pol, err := s.store.MLP()
		if err != nil {
			return nil, err
		}
		return &il.OfflineDecider{P: s.p, Policy: pol.Clone()}, nil
	case PolicyOfflineTree:
		if s.store == nil {
			return nil, fmt.Errorf("policy %q needs a policy file (-policy-file)", policy)
		}
		pol, err := s.store.Tree()
		if err != nil {
			return nil, err
		}
		return &il.OfflineDecider{P: s.p, Policy: pol}, nil
	case PolicyOnlineIL:
		if s.store == nil || s.models == nil {
			return nil, fmt.Errorf("policy %q needs a policy file and warm online models", policy)
		}
		pol, err := s.store.MLP()
		if err != nil {
			return nil, err
		}
		return il.NewOnlineILSeeded(s.p, pol.Clone(), s.models.Clone(), seed), nil
	case "ondemand":
		return governor.NewOndemand(s.p), nil
	case "interactive":
		return governor.NewInteractive(s.p), nil
	case "performance":
		return governor.Performance{P: s.p}, nil
	case "powersave":
		return governor.Powersave{P: s.p}, nil
	}
	return nil, fmt.Errorf("unknown policy %s", quoteBounded(policy))
}

// maxQuotedName bounds how much of a caller-supplied name an error quotes
// back: a create body may carry megabytes of policy name, and the answer
// must not echo them.
const maxQuotedName = 64

// quoteBounded is %q for names up to maxQuotedName bytes; a longer name is
// quoted by its prefix, followed by its full length.
func quoteBounded(name string) string {
	if len(name) <= maxQuotedName {
		return strconv.Quote(name)
	}
	return fmt.Sprintf("%q… (%d bytes)", name[:maxQuotedName], len(name))
}

// defaultStart is the neutral boot configuration handed to new sessions.
func (s *Server) defaultStart() soc.Config {
	return soc.Config{
		LittleFreqIdx: len(s.p.LittleOPPs) / 2,
		BigFreqIdx:    len(s.p.BigOPPs) / 2,
		NLittle:       4,
		NBig:          2,
	}
}

// ---- Direct-call API ----
// These are the same operations the HTTP handlers perform, callable
// in-process so embedders, tests and benchmarks can drive the serving hot
// path without paying JSON or HTTP round-trips. Errors carry HTTP statuses
// (apiError).

// CreateSession opens a session and returns its handle plus the start
// configuration the client should execute first.
func (s *Server) CreateSession(req CreateRequest) (CreateResponse, error) {
	if s.draining.Load() {
		return CreateResponse{}, apiErrorf(http.StatusServiceUnavailable, "server is draining")
	}
	if req.Policy == "" {
		req.Policy = PolicyOfflineIL
	}
	// Refuse before building the decider: the session cap exists to bound
	// the daemon's work, and an online-il decider clones a network plus
	// the warm model template. The authoritative check is re-done by the
	// registry insert; this one keeps rejected creates cheap.
	if s.sessions.len() >= s.maxSessions {
		return CreateResponse{}, apiErrorf(http.StatusServiceUnavailable,
			"session limit %d reached", s.maxSessions)
	}
	id := s.nextID.Add(1)
	name := req.ID
	if name == "" {
		// Skip ids a recovered or imported session already holds: nextID
		// restarts at 0 in every process, the sessions it named do not.
		name = "s-" + strconv.FormatInt(id, 10)
		for s.sessions.get(name) != nil {
			id = s.nextID.Add(1)
			name = "s-" + strconv.FormatInt(id, 10)
		}
	} else if len(name) > maxSessionID {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest,
			"session id exceeds %d bytes", maxSessionID)
	}
	seed := s.seedBase + id
	if req.Seed != nil {
		seed = *req.Seed
	}
	dec, err := s.newDecider(req.Policy, seed)
	if err != nil {
		return CreateResponse{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	sess := &Session{ID: name, Policy: req.Policy, dec: dec}
	sess.setEpoch(1) // first ownership generation; every handoff bumps it
	sess.lastCfg = s.defaultStart()
	switch s.sessions.insert(sess) {
	case insertDup:
		return CreateResponse{}, apiErrorf(http.StatusConflict,
			"session %q already exists", name)
	case insertFull:
		return CreateResponse{}, apiErrorf(http.StatusServiceUnavailable,
			"session limit %d reached", s.maxSessions)
	}
	s.mSessionsTotal.Inc()
	s.mSessionsActive.Add(1)
	return CreateResponse{ID: sess.ID, Policy: req.Policy, Start: sess.lastCfg}, nil
}

// maxSessionID bounds caller-supplied session ids: ids are map keys, metric
// fodder and hash-ring input, not a payload channel.
const maxSessionID = 128

// stepSession runs one decision on a live session with full metrics
// accounting — the innermost serving hot path.
func (s *Server) stepSession(sess *Session, t *StepTelemetry) (soc.Config, error) {
	start := time.Now()
	cfg, err := sess.step(s.p, t)
	if err != nil {
		s.mStepErrors.Inc()
		return soc.Config{}, apiErrorf(http.StatusConflict, "%v", err)
	}
	s.mLatency.Observe(time.Since(start).Seconds())
	s.mSteps.Inc()
	s.mEnergy.Add(t.EnergyJ)
	return cfg, nil
}

// stepEach decides steps in order for sess, appending each decided
// configuration to configs. It is the one copy of the multi-record step
// loop shared by the step handler and the batch API.
func (s *Server) stepEach(sess *Session, steps []StepTelemetry, configs []soc.Config) ([]soc.Config, error) {
	for i := range steps {
		cfg, err := s.stepSession(sess, &steps[i])
		if err != nil {
			return configs, err
		}
		configs = append(configs, cfg)
	}
	return configs, nil
}

// Step decides one telemetry record for the session and returns the next
// configuration plus the session's step count.
func (s *Server) Step(id string, t *StepTelemetry) (soc.Config, uint64, error) {
	sess := s.sessions.get(id)
	if sess == nil {
		sess, _, _ = s.promoteForStep(id)
	}
	if sess == nil {
		s.mStepErrors.Inc()
		return soc.Config{}, 0, apiErrorf(http.StatusNotFound, "no session %q", id)
	}
	cfg, err := s.stepSession(sess, t)
	if err != nil {
		return soc.Config{}, 0, err
	}
	return cfg, sess.Steps(), nil
}

// StepBatch processes many (session, telemetry) entries in order, appending
// one result per entry to results and returning the extended slice. Pass
// results[:0] from a previous call to reuse its storage, including each
// result's Configs backing array — the steady-state batch path then
// allocates nothing. A failed entry carries its error in-band; the other
// entries still step.
func (s *Server) StepBatch(entries []BatchEntry, results []BatchResult) []BatchResult {
	for i := range entries {
		e := &entries[i]
		results = growResults(results)
		res := &results[len(results)-1]
		res.Configs = res.Configs[:0]
		res.Step = 0
		res.Status = StepOK
		res.Error = ""
		sess := s.sessions.getBytes(e.Session)
		if sess == nil {
			// Miss path only: the string conversion allocates, but a miss is
			// already off the zero-alloc contract (it writes an error field).
			sess, _, _ = s.promoteForStep(string(e.Session))
		}
		if sess == nil {
			s.mStepErrors.Inc()
			res.Session = string(e.Session)
			res.Status = StepNoSession
			res.Error = StepNoSession.Text()
			continue
		}
		// The canonical interned id, not a fresh copy of the request bytes:
		// the found path of a fleet tick allocates no strings at all.
		res.Session = sess.ID
		// One allocation when a fresh slot first sees this many steps,
		// not one per doubling.
		configs, err := s.stepEach(sess, e.Steps, slices.Grow(res.Configs, len(e.Steps)))
		res.Configs = configs
		if err != nil {
			res.Status = StepRejected
			res.Error = err.Error()
		}
		res.Step = sess.Steps()
	}
	return results
}

// growResults extends results by one slot, reviving the storage (and the
// nested Configs capacity) of a slot truncated by a previous reuse cycle.
func growResults(results []BatchResult) []BatchResult {
	if len(results) < cap(results) {
		return results[:len(results)+1]
	}
	return append(results, BatchResult{})
}

// CloseSession removes a session and returns its final state.
func (s *Server) CloseSession(id string) (SessionInfo, error) {
	sess := s.sessions.remove(id)
	if sess == nil {
		return SessionInfo{}, apiErrorf(http.StatusNotFound, "no session %q", id)
	}
	sess.close()
	s.mSessionsClosed.Inc()
	s.mSessionsActive.Add(-1)
	return sess.info(), nil
}

// Info returns a session's observable state.
func (s *Server) Info(id string) (SessionInfo, error) {
	sess := s.sessions.get(id)
	if sess == nil {
		return SessionInfo{}, apiErrorf(http.StatusNotFound, "no session %q", id)
	}
	return sess.info(), nil
}

// ---- HTTP layer ----

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	mux.HandleFunc("POST /v1/step/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/sessions/{id}/detach", s.handleDetach)
	mux.HandleFunc("POST /v1/sessions/import", s.handleImport)
	mux.HandleFunc("POST /v1/replica/{id}", s.handleReplicaPut)
	mux.HandleFunc("GET /v1/replica/{id}", s.handleReplicaGet)
	mux.HandleFunc("DELETE /v1/replica/{id}", s.handleReplicaDelete)
	mux.HandleFunc("GET /admin/replicas", s.handleReplicaList)
	mux.HandleFunc("GET /admin/sessions", s.handleSessionList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleReady is the load-balancer readiness probe: liveness (/healthz)
// says the process responds, readiness says it can usefully take traffic:
// it is not draining or recovering, and a persisted policy is loaded (when
// one is configured).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.recovering.Load() {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	if s.store != nil && s.store.Generation() == 0 {
		http.Error(w, "policy not loaded", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// CreateRequest is the body of POST /v1/sessions.
type CreateRequest struct {
	Policy string `json:"policy"`
	// ID names the session explicitly instead of taking a server-assigned
	// id. The cluster router supplies ids so that session placement follows
	// its hash ring; plain clients leave it empty.
	ID string `json:"id,omitempty"`
	// Seed overrides the server-assigned per-session training seed.
	Seed *int64 `json:"seed,omitempty"`
}

// CreateResponse returns the session handle and the configuration the
// client should execute first.
type CreateResponse struct {
	ID     string     `json:"id"`
	Policy string     `json:"policy"`
	Start  soc.Config `json:"start"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxStepBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", maxStepBody)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	resp, err := s.CreateSession(req)
	if err != nil {
		writeError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// StepRequest is the body of POST /v1/sessions/{id}/step: either one
// telemetry record inline, or a batch under "steps" (processed in order
// within the session, one decision each).
type StepRequest struct {
	StepTelemetry
	Steps []StepTelemetry `json:"steps,omitempty"`
}

// StepResponse carries the decided configuration(s).
type StepResponse struct {
	Config  soc.Config   `json:"config"`
	Configs []soc.Config `json:"configs,omitempty"`
	Step    uint64       `json:"step"`
}

// SessionRef is a session id inside a batch request. It decodes from a
// JSON string without allocating: when the encoded id carries no escape
// sequences (every id this server issues), the bytes alias the pooled
// request buffer, which outlives every use within the request — that alias
// is what removes the per-entry string allocations from the batch hot
// path. Direct callers construct it with SessionRef("s-1").
type SessionRef []byte

// UnmarshalJSON implements json.Unmarshaler with the zero-copy fast path.
func (r *SessionRef) UnmarshalJSON(data []byte) error {
	if len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"' {
		body := data[1 : len(data)-1]
		if bytes.IndexByte(body, '\\') < 0 {
			*r = body
			return nil
		}
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("session id: %w", err)
	}
	*r = SessionRef(s)
	return nil
}

// MarshalJSON round-trips the id as a JSON string.
func (r SessionRef) MarshalJSON() ([]byte, error) { return json.Marshal(string(r)) }

func (r SessionRef) String() string { return string(r) }

// BatchEntry addresses one session inside POST /v1/step/batch.
type BatchEntry struct {
	Session SessionRef      `json:"session"`
	Steps   []StepTelemetry `json:"steps"`
}

// BatchRequest is the body of POST /v1/step/batch: many sessions stepped in
// one request, so a fleet-side aggregator pays one round trip per tick
// instead of one per device.
type BatchRequest struct {
	Entries []BatchEntry `json:"entries"`
}

// StepStatus codes one batch entry's outcome. The enum (with its
// preallocated text) replaces the per-entry formatted error strings the
// batch encode path used to build, so a fleet tick's response costs no
// string allocations; an absent/zero status means the entry stepped.
type StepStatus uint8

const (
	// StepOK: every step of the entry decided.
	StepOK StepStatus = iota
	// StepNoSession: the referenced session does not exist.
	StepNoSession
	// StepRejected: the session exists but a step failed (closed session,
	// empty telemetry); steps before the failure still decided.
	StepRejected
	// StepShed: the entry was not attempted because admission control shed
	// it (backend 429 or deadline) — retry after backing off; the session
	// itself is fine.
	StepShed
)

// stepStatusText is the preallocated wire text per status.
var stepStatusText = [...]string{
	StepOK:        "",
	StepNoSession: "no session",
	StepRejected:  "step rejected",
	StepShed:      "shed: overloaded, retry later",
}

// Text returns the constant human-readable label for the status.
func (st StepStatus) Text() string {
	if int(st) < len(stepStatusText) {
		return stepStatusText[st]
	}
	return "unknown status"
}

// BatchResult is one entry's outcome; Status (and its constant Error text)
// is set in-band so one dead session cannot fail a whole fleet tick.
type BatchResult struct {
	Session string       `json:"session"`
	Configs []soc.Config `json:"configs,omitempty"`
	Step    uint64       `json:"step,omitempty"`
	Status  StepStatus   `json:"status,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// BatchResponse carries one result per request entry, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// stepScratch is the pooled per-request workspace of the step endpoints:
// the decoded requests (whose Steps/Entries backing arrays — including the
// nested per-entry Steps storage — the decoders reuse) and the responses
// with their Configs/Results storage. Pooling it keeps the per-step JSON
// path allocation-free without any per-session state in the HTTP layer.
// The body buffer holds a request body of known length while it is parsed
// (batch session ids alias it until the response is encoded) and is then
// the response encode target, with a persistent Encoder bound to it. Bodies
// the fast parser does not take decode on a persistent json.Decoder (see
// decode), whose internal read buffer amortizes across requests.
type stepScratch struct {
	req    StepRequest
	body   bytes.Buffer
	batch  BatchRequest
	resp   StepResponse
	bresp  BatchResponse
	lim    io.LimitedReader
	replay replayReader
	dec    *json.Decoder // persistent, reads through &lim; see decode
	enc    *json.Encoder // bound to &body, created on first response
}

var stepScratchPool = sync.Pool{New: func() any { return &stepScratch{} }}

// contentTypeJSON is the shared Content-Type value slice the hot path
// assigns into the response header map, sparing the per-request slice that
// Header().Set would allocate. net/http treats header values as read-only.
var contentTypeJSON = []string{"application/json"}

// maxStepBody bounds every request body the server reads: steps, batches,
// creates, snapshots and replicas. A full batch tick for a thousand
// sessions is well under a megabyte; anything larger is a broken or
// hostile client. The body buffer grows only as bytes arrive and is
// never sized from an attacker-controlled Content-Length.
const maxStepBody = 8 << 20

// MaxBatchEntries bounds entries per POST /v1/step/batch request (413 past
// it). The byte cap alone is not enough: a hostile batch of tiny entries
// stays under 8 MiB while fanning out to hundreds of thousands of registry
// probes; the entry cap bounds the work a single request can demand.
const MaxBatchEntries = 4096

// replayReader yields buffered body bytes, then the error the body read
// ended with, so the fallback decoder sees exactly the stream it would
// have read from the body itself.
type replayReader struct {
	b   []byte
	err error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// decode reads one request body into scr.req or scr.batch (v is the one
// to fill; the caller has reset it). A body of known length up to
// maxStepBody is read whole into the body buffer and parsed by the fast
// path (stepbody.go). Every other body — one the fast path does not take,
// replayed from the buffer into a freshly reset request, or one of unknown
// length, streamed — goes through the scratch's persistent json.Decoder:
// a json.Decoder is built for streams of values, so successive request
// bodies decode on one decoder whose read buffer, scanner and decode state
// all amortize to zero allocations. The decoder is compromised whenever a
// body was malformed (sticky error state) or carried trailing data (which
// would leak into the next request's decode), so either condition
// rebuilds it on the next request.
func (scr *stepScratch) decode(r *http.Request, v any) error {
	scr.lim.R = r.Body
	scr.lim.N = maxStepBody + 1
	defer func() {
		scr.lim.R = nil // never retain a request body in the pool
		scr.replay = replayReader{}
	}()
	if r.ContentLength >= 0 && r.ContentLength <= maxStepBody {
		scr.body.Reset()
		_, err := scr.body.ReadFrom(&scr.lim)
		if err == nil {
			if scr.parse(v) {
				return nil
			}
			err = io.EOF
		}
		scr.replay = replayReader{b: scr.body.Bytes(), err: err}
		scr.lim.R = &scr.replay
		scr.lim.N = maxStepBody + 1
	}
	if scr.dec == nil {
		scr.dec = json.NewDecoder(&scr.lim)
	}
	err := scr.dec.Decode(v)
	if err != nil || scr.decTainted() {
		scr.dec = nil
	}
	return err
}

// parse runs the fast path for v on the buffered body (see stepbody.go).
// When the fast path does not take the body, v is reset for the fallback.
func (scr *stepScratch) parse(v any) bool {
	b := scr.body.Bytes()
	switch v := v.(type) {
	case *StepRequest:
		if parseStepBody(b, v) {
			return true
		}
		scr.resetStep()
	case *BatchRequest:
		if parseBatchBody(b, v) {
			return true
		}
		scr.resetBatch()
	}
	return false
}

// decTainted reports whether the decoder holds buffered bytes beyond the
// decoded value that are not JSON whitespace. It inspects only the
// decoder's in-memory buffer — a More() probe would Read the request
// body and block forever on a streaming client that keeps the body open
// while waiting for the response. Bytes the decoder never buffered
// cannot poison the next request: they die with this request's body.
func (scr *stepScratch) decTainted() bool {
	br := scr.dec.Buffered()
	var tmp [64]byte
	for {
		n, err := br.Read(tmp[:])
		for _, c := range tmp[:n] {
			switch c {
			case ' ', '\t', '\r', '\n':
			default:
				return true
			}
		}
		if err != nil {
			return false
		}
	}
}

// writeJSON encodes v through the scratch's persistent encoder into the
// pooled buffer (reset first — any request bytes in it are already
// decoded) and writes the response in one shot.
func (scr *stepScratch) writeJSON(w http.ResponseWriter, status int, v any) {
	scr.body.Reset()
	if scr.enc == nil {
		scr.enc = json.NewEncoder(&scr.body)
	}
	if err := scr.enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	_, _ = w.Write(scr.body.Bytes())
}

// resetStep clears the step request through its full capacity before a
// decode. The decoder only writes keys the body carries, so without this a
// request omitting an optional field would inherit a previous request's
// value from the pooled backing array. StepTelemetry is pointer-free, so
// clear compiles to a memclr.
func (scr *stepScratch) resetStep() {
	scr.req.StepTelemetry = StepTelemetry{}
	steps := scr.req.Steps[:cap(scr.req.Steps)]
	clear(steps)
	scr.req.Steps = steps[:0]
}

// resetBatch clears every entry slot through capacity while keeping each
// slot's nested Steps storage alive for the decoder to reuse.
func (scr *stepScratch) resetBatch() {
	entries := scr.batch.Entries[:cap(scr.batch.Entries)]
	for i := range entries {
		e := &entries[i]
		e.Session = nil
		steps := e.Steps[:cap(e.Steps)]
		clear(steps)
		e.Steps = steps[:0]
	}
	scr.batch.Entries = entries[:0]
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if !s.limiter.Acquire(r.Context()) {
			WriteShed(w)
			return
		}
		defer s.limiter.Release()
	}
	id := r.PathValue("id")
	sess := s.sessions.get(id)
	if sess == nil {
		// Registry miss: this may be a failed-over step for a session whose
		// owner died and whose warm-standby replica is parked here.
		var promoted, stale bool
		sess, promoted, stale = s.promoteForStep(id)
		if promoted {
			h := w.Header()
			h.Set(HeaderPromoted, "1")
			if stale {
				h.Set(HeaderPromotedStale, "1")
			}
		}
	}
	if sess == nil {
		s.mStepErrors.Inc()
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	// The answering copy's fencing token rides on every step response, so
	// an active-active router can tell a stale copy from the current one.
	w.Header()[HeaderEpoch] = sess.epochHdr
	scr := stepScratchPool.Get().(*stepScratch)
	defer stepScratchPool.Put(scr)
	scr.resetStep()
	if err := scr.decode(r, &scr.req); err != nil {
		s.mStepErrors.Inc()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	scr.resp.Configs = scr.resp.Configs[:0]
	if len(scr.req.Steps) > 0 {
		configs, err := s.stepEach(sess, scr.req.Steps, scr.resp.Configs)
		scr.resp.Configs = configs
		if err != nil {
			writeError(w, statusOf(err), "%v", err)
			return
		}
		scr.resp.Config = configs[len(configs)-1]
	} else {
		cfg, err := s.stepSession(sess, &scr.req.StepTelemetry)
		if err != nil {
			writeError(w, statusOf(err), "%v", err)
			return
		}
		scr.resp.Config = cfg
	}
	scr.resp.Step = sess.Steps()
	scr.writeJSON(w, http.StatusOK, &scr.resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if !s.limiter.Acquire(r.Context()) {
			WriteShed(w)
			return
		}
		defer s.limiter.Release()
	}
	scr := stepScratchPool.Get().(*stepScratch)
	defer stepScratchPool.Put(scr)
	scr.resetBatch()
	if err := scr.decode(r, &scr.batch); err != nil {
		s.mStepErrors.Inc()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(scr.batch.Entries) == 0 {
		writeError(w, http.StatusBadRequest, "batch request carries no entries")
		return
	}
	if len(scr.batch.Entries) > MaxBatchEntries {
		s.mStepErrors.Inc()
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch carries %d entries, cap is %d", len(scr.batch.Entries), MaxBatchEntries)
		return
	}
	scr.bresp.Results = s.StepBatch(scr.batch.Entries, scr.bresp.Results[:0])
	scr.writeJSON(w, http.StatusOK, &scr.bresp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.Info(r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	info, err := s.CloseSession(r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Aggregate per-session learner progress at scrape time. Snapshot the
	// session pointers first and only then take each session's own mutex:
	// info() can block behind a mid-retrain session, and holding a shard
	// read lock across that would queue writers — and, behind them, every
	// step lookup on the shard — for the duration of a scrape.
	sessions := make([]*Session, 0, s.sessions.len())
	s.sessions.forEach(func(sess *Session) {
		sessions = append(sessions, sess)
	})
	updates := 0
	for _, sess := range sessions {
		updates += sess.info().Updates
	}
	s.mPolicyUpdates.Set(float64(updates))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteProm(w)
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if err := s.Reload(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{
		"generation": s.store.Generation(),
	})
}

// SessionCount returns the number of open sessions.
func (s *Server) SessionCount() int { return s.sessions.len() }

// Metrics exposes the registry so embedders (the replicator, tests) can
// register on and read what /metrics reports.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// DecideLatency exposes the decision-latency histogram for reporting.
func (s *Server) DecideLatency() *metrics.Histogram { return s.mLatency }
