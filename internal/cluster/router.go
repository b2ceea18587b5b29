package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"socrm/internal/metrics"
	"socrm/internal/serve"
)

// RouterOptions configure the front tier.
type RouterOptions struct {
	// Backends are the backend base URLs the router may route to (its static
	// universe; readiness probing decides the live subset).
	Backends []string
	// Instance distinguishes this router in an active-active tier: it is
	// baked into the session ids this router assigns ("r<instance>-<n>"), so
	// two routers assigning ids concurrently can never collide. Empty keeps
	// the single-router id format ("r-<n>").
	Instance string
	// MaxInflight bounds concurrently admitted step/batch requests at the
	// router tier (0 = unlimited). Excess sheds with 429 + Retry-After —
	// the router degrades before its backends drown.
	MaxInflight int
	// MaxQueue bounds requests briefly waiting for an admission slot once
	// MaxInflight is saturated (0 = immediate 429).
	MaxQueue int
	// QueueWait bounds how long a queued request waits (0 = 100ms).
	QueueWait time.Duration
	// ProbeInterval between membership probes (0 = 500ms).
	ProbeInterval time.Duration
	// Client configures backend HTTP calls (nil = a dedicated client with a
	// 10s timeout). Backend calls go through the cluster's shared peer
	// call, straight to its Transport (http.DefaultTransport when nil); its
	// Timeout, when set and shorter than CallTimeout, caps each call's
	// deadline, and errors read as Client.Do's would. Redirects are not followed and no cookie jar is
	// consulted: a backend's 3xx answer is proxied as is. Readiness probes
	// use the client itself.
	Client *http.Client
	// CallTimeout bounds every forwarded backend call (0 = 5s). One hung
	// backend must cost one deadline, never a wedged front tier.
	CallTimeout time.Duration
	// ProbeTimeout bounds each readiness probe (0 = 2s).
	ProbeTimeout time.Duration
	// Retries is how many times a failed call is retried with jittered
	// exponential backoff (0 = 2; negative = no retries). Non-idempotent
	// calls (steps, creates, imports) retry only when the connection was
	// refused outright — a request the backend never received cannot have
	// been acted on twice. A 429 is never retried: the backend asked for
	// less traffic, not the same traffic again.
	Retries int
	// RetryBackoff is the base backoff before the first retry, doubling per
	// attempt with up-to-50% jitter (0 = 25ms).
	RetryBackoff time.Duration
	// FailAfter is how many consecutive probe transport failures mark a
	// ready backend failed (0 = 3). A backend that *answers* 503 is
	// deliberately unready (draining, recovering) and is removed on the
	// first probe; FailAfter only debounces silent failures, where one
	// dropped packet should not trigger a rebalance storm.
	FailAfter int
}

// Router is the session-affine front tier: it consistent-hash-routes
// session ids across ready backends, forwards the serving API, and migrates
// sessions (export on the old owner, import on the new) whenever the ready
// set changes, so a client talks to one URL while sessions live wherever
// the ring says. A relocation cache papers over the handoff window: a step
// that races a migration retries where the session actually is instead of
// surfacing an error.
//
// Routers are active-active: any number of them may serve the same backend
// set concurrently. They coordinate through the backends, not each other —
// ids are namespaced per router instance, placement follows the shared
// ring, and racing migrations/promotions are arbitrated by the backends'
// session epochs (a stale import is refused, so at most one router's move
// wins). The epoch also rides on every step response; a router that gets an
// answer from a copy older than one it has already seen re-locates instead
// of trusting it.
type Router struct {
	backends     []string
	idPrefix     string // "r<instance>-": the prefix of the ids this router assigns
	interval     time.Duration
	peer         peer
	probeTimeout time.Duration
	retries      int
	retryBackoff time.Duration
	failAfter    int

	// ring is the current ownership map, swapped whole on membership change;
	// the proxy hot path loads it with one atomic read.
	ring atomic.Pointer[Ring]

	// mu serializes probing/rebalancing (slow path only).
	mu    sync.Mutex
	ready map[string]bool
	// failCount tracks consecutive silent probe failures per backend
	// (guarded by mu); reaching failAfter marks the backend failed.
	failCount map[string]int

	// relocations overrides ring ownership per session id while placement
	// and ring disagree (mid-drain, mid-rebalance, off-owner create).
	relocations sync.Map // session id -> backend URL

	// epochs remembers the highest session epoch seen in step responses
	// (session id -> uint64); an answer from a lower epoch means a stale
	// copy answered and triggers a re-locate.
	epochs sync.Map

	// limiter sheds step/batch traffic beyond the router's admission bound;
	// nil admits everything.
	limiter *serve.Limiter

	nextID   atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	reg              *metrics.Registry
	mReady           *metrics.Gauge
	mProxied         *metrics.Counter
	mProxyErrors     *metrics.Counter
	mMigrations      *metrics.Counter
	mFailedHandoffs  *metrics.Counter
	mRelocations     *metrics.Counter
	mRebalance       *metrics.Histogram
	mRetries         *metrics.Counter
	mPromotions      *metrics.Counter
	mPromotionsStale *metrics.Counter
	mStaleEpochs     *metrics.Counter
	mBackendSheds    *metrics.Counter
	backendGaugesMu  sync.Mutex
	mBackendSessions map[string]*metrics.Gauge
}

// NewRouter builds a router over the configured backends. Call Probe once
// (or Start) before serving so the ring reflects reality.
func NewRouter(opt RouterOptions) *Router {
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = 500 * time.Millisecond
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = 2 * time.Second
	}
	if opt.Retries == 0 {
		opt.Retries = 2
	} else if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 25 * time.Millisecond
	}
	if opt.FailAfter <= 0 {
		opt.FailAfter = 3
	}
	reg := metrics.NewRegistry()
	rt := &Router{
		backends:     append([]string(nil), opt.Backends...),
		idPrefix:     "r" + opt.Instance + "-",
		interval:     opt.ProbeInterval,
		peer:         newPeer(opt.Client, opt.CallTimeout),
		probeTimeout: opt.ProbeTimeout,
		retries:      opt.Retries,
		retryBackoff: opt.RetryBackoff,
		failAfter:    opt.FailAfter,
		ready:        map[string]bool{},
		failCount:    map[string]int{},
		stop:         make(chan struct{}),
		reg:          reg,
		mReady: reg.Gauge("socrouted_backends_ready",
			"Backends currently passing the readiness probe."),
		mProxied: reg.Counter("socrouted_proxied_requests_total",
			"Requests forwarded to backends."),
		mProxyErrors: reg.Counter("socrouted_proxy_errors_total",
			"Forwarded requests that failed at the transport level."),
		mMigrations: reg.Counter("socrouted_migrations_total",
			"Sessions migrated between backends by the router."),
		mFailedHandoffs: reg.Counter("socrouted_failed_handoffs_total",
			"Session migrations that lost the session (export succeeded, every import failed)."),
		mRelocations: reg.Counter("socrouted_relocations_total",
			"Sessions found off their ring owner and re-pinned by probing."),
		mRebalance: reg.Histogram("socrouted_rebalance_seconds",
			"Wall time of each topology-change rebalance."),
		mRetries: reg.Counter("socrouted_retries_total",
			"Backend calls retried after a transport failure or 5xx."),
		mPromotions: reg.Counter("socrouted_promotions_total",
			"Replica promotions observed on forwarded steps (backend header)."),
		mPromotionsStale: reg.Counter("socrouted_promotions_stale_total",
			"Promotions whose replica exceeded the backend's staleness bound."),
		mStaleEpochs: reg.Counter("socrouted_stale_epochs_total",
			"Step responses answered by a session copy older than one already seen (split-brain detected)."),
		mBackendSheds: reg.Counter("socrouted_backend_sheds_total",
			"Forwarded requests a backend shed with 429 (propagated, never retried)."),
		mBackendSessions: map[string]*metrics.Gauge{},
	}
	if opt.MaxInflight > 0 {
		rt.limiter = serve.NewLimiter(serve.LimiterOptions{
			Inflight:  opt.MaxInflight,
			Queue:     opt.MaxQueue,
			QueueWait: opt.QueueWait,
			Registry:  reg,
			Name:      "socrouted_step",
		})
	}
	rt.ring.Store(NewRing(nil))
	return rt
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Ring returns the current ownership ring.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// Start launches the background probe loop; Stop ends it.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.Probe()
			}
		}
	}()
}

// Stop ends the probe loop.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Probe checks every configured backend's /readyz, rebuilds the ring when
// the ready set changed, and migrates sessions stranded off their new
// owner. It returns whether membership changed. Safe to call concurrently
// with serving; probes serialize among themselves.
func (rt *Router) Probe() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := false
	readyCount := 0
	for _, b := range rt.backends {
		up, responded := rt.peer.ready(b, rt.probeTimeout)
		switch {
		case up:
			rt.failCount[b] = 0
		case responded:
			// A live process answering not-ready (draining, recovering) is
			// authoritative: remove it now, no debounce.
			rt.failCount[b] = 0
		default:
			// Silent failure (refused, timeout): a ready backend keeps its
			// status until failAfter consecutive misses, so one dropped
			// probe doesn't trigger a migration storm.
			rt.failCount[b]++
			if rt.ready[b] && rt.failCount[b] < rt.failAfter {
				up = true
			}
		}
		if up {
			readyCount++
		}
		if rt.ready[b] != up {
			rt.ready[b] = up
			changed = true
		}
	}
	rt.mReady.Set(float64(readyCount))
	if !changed {
		rt.updateBackendGauges()
		return false
	}
	nodes := make([]string, 0, readyCount)
	for _, b := range rt.backends {
		if rt.ready[b] {
			nodes = append(nodes, b)
		}
	}
	ring := NewRing(nodes)
	rt.ring.Store(ring)
	// Relocation pins pointing at a removed backend would misroute until
	// their next miss; purge them so the ring (and its failover owner)
	// takes over immediately.
	rt.relocations.Range(func(k, v any) bool {
		if !ring.Has(v.(string)) {
			rt.relocations.Delete(k)
		}
		return true
	})
	rt.rebalanceLocked(ring)
	rt.updateBackendGauges()
	return true
}

// sessionsOf lists a backend's live sessions.
func (rt *Router) sessionsOf(backend string) ([]string, error) {
	data, status, err := rt.do(context.Background(), http.MethodGet, backend, "/admin/sessions", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: listing sessions: %d", backend, status)
	}
	var list struct {
		Sessions []string `json:"sessions"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

// rebalanceLocked moves every session that the new ring assigns elsewhere.
// After a backend removal consistent hashing only relocates the removed
// node's arcs, so survivors mostly hold their sessions and the loop is
// cheap; after an addition the new node's arc worth of sessions streams in.
func (rt *Router) rebalanceLocked(ring *Ring) {
	start := time.Now()
	// refusals counts import rejections per backend across the whole pass,
	// as a drain does: a backend past the limit is offered no more imports.
	refusals := make(map[string]int, ring.Len())
	for _, b := range ring.Nodes() {
		ids, err := rt.sessionsOf(b)
		if err != nil {
			continue
		}
		for _, id := range ids {
			owner := ring.Owner(id)
			if owner == b {
				rt.relocations.Delete(id)
				continue
			}
			rt.migrate(id, b, owner, ring, refusals)
		}
	}
	rt.mRebalance.Observe(time.Since(start).Seconds())
}

// migrate hands one session from one backend to another: detach (the
// per-session handoff lock — the source removes, quiesces training and
// snapshots in one call), then hand off to the destination, falling back to
// any other ready backend and at last back to the source rather than losing
// the session. Epoch fencing arbitrates races: if another router (or a
// replica promotion) already rehomed a fresher generation of the session,
// every import of this now-stale snapshot is refused and the fresher copy
// stands.
func (rt *Router) migrate(id, from, to string, ring *Ring, refusals map[string]int) {
	ctx := context.Background()
	env, status, err := rt.do(ctx, http.MethodPost, from, "/v1/sessions/"+id+"/detach", nil, "")
	if err != nil || status != http.StatusOK {
		// Someone else (a drain, a concurrent probe) already moved it.
		return
	}
	if t := handoff(rt.doHdr, id, from, env, append([]string{to}, ring.Nodes()...), refusals, defaultRefusalLimit); t != "" {
		rt.mMigrations.Inc()
		if t == ring.Owner(id) {
			rt.relocations.Delete(id)
		} else {
			rt.relocations.Store(id, t)
		}
		return
	}
	// Last resort: put it back where it came from.
	if _, status, err = rt.do(ctx, http.MethodPost, from, "/v1/sessions/import", env, "application/octet-stream"); err == nil && status == http.StatusCreated {
		rt.relocations.Store(id, from)
		return
	}
	rt.mFailedHandoffs.Inc()
}

// updateBackendGauges refreshes the per-backend session-count gauges — the
// router's one report of how the ring spread the sessions — and moves the
// id counter past every id this router instance assigned before a restart.
func (rt *Router) updateBackendGauges() {
	for _, b := range rt.backends {
		if !rt.ready[b] {
			rt.backendGauge(b).Set(0)
			continue
		}
		if ids, err := rt.sessionsOf(b); err == nil {
			rt.backendGauge(b).Set(float64(len(ids)))
			rt.skipAssignedIDs(ids)
		}
	}
}

// skipAssignedIDs raises nextID to the highest "r<instance>-<n>" among ids,
// so a restarted router never assigns an id a backend already holds.
func (rt *Router) skipAssignedIDs(ids []string) {
	for _, id := range ids {
		rest, ok := strings.CutPrefix(id, rt.idPrefix)
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			continue
		}
		for {
			cur := rt.nextID.Load()
			if n <= cur || rt.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}

// backendGauge returns the session gauge for one backend, registering it on
// first use (label embedded in the metric name, the registry's convention).
func (rt *Router) backendGauge(backend string) *metrics.Gauge {
	rt.backendGaugesMu.Lock()
	defer rt.backendGaugesMu.Unlock()
	g, found := rt.mBackendSessions[backend]
	if !found {
		g = rt.reg.Gauge(fmt.Sprintf("socrouted_backend_sessions{backend=%q}", backend),
			"Sessions currently resident on the backend.")
		rt.mBackendSessions[backend] = g
	}
	return g
}

// do performs one backend call under the router's retry/timeout/backoff
// discipline and returns the response body and status. Every attempt runs
// under its own callTimeout deadline, nested inside ctx so a client that
// gave up (or a router-tier deadline) cancels the backend call too. Retry
// policy:
//
//   - Idempotent calls (GET, DELETE) retry on any transport error and on
//     5xx responses.
//   - Non-idempotent calls (POST steps, creates, imports) retry ONLY when
//     the connection was refused — the request provably never reached a
//     backend, so it cannot have been applied twice. A timeout or a 5xx on
//     a step is ambiguous (the decision may already be acked into learner
//     state) and is surfaced, not replayed.
//   - 429 is never retried at any method: the backend is shedding load and
//     a retry is exactly the traffic it asked not to get. The shed
//     propagates to the client, whose Retry-After backoff is the recovery
//     mechanism.
func (rt *Router) do(ctx context.Context, method, backend, path string, body []byte, contentType string) ([]byte, int, error) {
	data, status, _, err := rt.doHdr(ctx, method, backend, path, body, contentType)
	return data, status, err
}

// doHdr is do plus the response headers, for callers that read the fencing
// metadata (epoch, promotion flags) a backend attaches.
func (rt *Router) doHdr(ctx context.Context, method, backend, path string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	idempotent := method == http.MethodGet || method == http.MethodDelete
	var (
		data    []byte
		status  int
		hdr     http.Header
		lastErr error
	)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			rt.mRetries.Inc()
			time.Sleep(retryDelay(rt.retryBackoff, attempt))
		}
		data, status, hdr, lastErr = rt.doOnce(ctx, method, backend, path, body, contentType)
		if lastErr != nil {
			if ctx.Err() != nil {
				// The caller's deadline expired; more attempts only add load.
				return nil, 0, nil, lastErr
			}
			refused := errors.Is(lastErr, syscall.ECONNREFUSED)
			if attempt < rt.retries && (idempotent || refused) {
				continue
			}
			return nil, 0, nil, lastErr
		}
		if status == http.StatusTooManyRequests {
			rt.mBackendSheds.Inc()
			return data, status, hdr, nil
		}
		if status >= 500 && idempotent && attempt < rt.retries {
			continue
		}
		return data, status, hdr, nil
	}
}

// retryDelay is the jittered exponential backoff before retry n (1-based):
// base·2^(n-1) plus up to 50% jitter, so synchronized retries from many
// in-flight calls spread out instead of stampeding a recovering backend.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// doOnce is a single deadline-bounded backend call: the shared peer call
// plus the router's hop metrics.
func (rt *Router) doOnce(ctx context.Context, method, backend, path string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	data, status, hdr, err := rt.peer.call(ctx, method, backend, path, body, contentType)
	if err != nil {
		rt.mProxyErrors.Inc()
		return nil, 0, nil, err
	}
	// A backend that just promoted a warm-standby replica says so in a
	// response header; counting here gives the cluster-wide promotion view
	// without an extra round trip.
	if hdr.Get(serve.HeaderPromoted) == "1" {
		rt.mPromotions.Inc()
		if hdr.Get(serve.HeaderPromotedStale) == "1" {
			rt.mPromotionsStale.Inc()
		}
	}
	rt.mProxied.Inc()
	return data, status, hdr, nil
}

// route resolves a session id to its backend: the relocation cache wins
// over the ring (it records where the session actually is).
func (rt *Router) route(id string) (string, bool) {
	if v, found := rt.relocations.Load(id); found {
		return v.(string), true
	}
	owner := rt.ring.Load().Owner(id)
	return owner, owner != ""
}

// locate probes every ready backend for the session, re-pinning the
// relocation cache to the copy with the highest epoch when found — during a
// partition more than one backend may claim the session, and the freshest
// generation is the real one. It is also the router's answer to the handoff
// window: between detach and import the session exists nowhere, so a
// not-found is retried by the caller rather than trusted immediately.
func (rt *Router) locate(id string) (string, bool) {
	var (
		best      string
		bestEpoch uint64
		found     bool
	)
	for _, b := range rt.ring.Load().Nodes() {
		data, status, err := rt.do(context.Background(), http.MethodGet, b, "/v1/sessions/"+id, nil, "")
		if err != nil || status != http.StatusOK {
			continue
		}
		var info struct {
			Epoch uint64 `json:"epoch"`
		}
		_ = json.Unmarshal(data, &info)
		if !found || info.Epoch > bestEpoch {
			best, bestEpoch, found = b, info.Epoch, true
		}
	}
	if !found {
		return "", false
	}
	if best != rt.ring.Load().Owner(id) {
		rt.relocations.Store(id, best)
	} else {
		rt.relocations.Delete(id)
	}
	rt.noteEpoch(id, bestEpoch)
	rt.mRelocations.Inc()
	return best, true
}

// noteEpoch records the highest epoch seen for a session; reports whether e
// is stale (strictly below a previously seen epoch).
func (rt *Router) noteEpoch(id string, e uint64) bool {
	for {
		v, loaded := rt.epochs.Load(id)
		if !loaded {
			if _, raced := rt.epochs.LoadOrStore(id, e); !raced {
				return false
			}
			continue
		}
		cur := v.(uint64)
		if e < cur {
			return true
		}
		if e == cur || rt.epochs.CompareAndSwap(id, v, e) {
			return false
		}
	}
}

// relocateRetryBudget bounds how long a session call chases a migrating
// session before surfacing the backend's answer. Handoffs are milliseconds
// (export + import of tens of kilobytes), so a generous budget still keeps
// a genuinely missing session's 404 fast.
const (
	relocateRetryBudget = 2 * time.Second
	relocateRetryPause  = 2 * time.Millisecond
)

// callSession forwards one session-scoped request, chasing migrations: a
// 404/409 from the routed backend triggers a cluster-wide locate and a
// retry, until the budget expires or the caller's context ends. A 429 is
// surfaced immediately (shed, not missing). A success answered by a session
// copy with an epoch below one already seen gets a single locate-and-retry
// toward the fresher copy before the answer is trusted.
func (rt *Router) callSession(ctx context.Context, method, id, path string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	deadline := time.Now().Add(relocateRetryBudget)
	staleRetried := false
	var (
		data   []byte
		status int
		hdr    http.Header
		err    error
	)
	for {
		backend, routed := rt.route(id)
		if routed {
			data, status, hdr, err = rt.doHdr(ctx, method, backend, path, body, contentType)
			if err == nil && status != http.StatusNotFound && status != http.StatusConflict {
				if status == http.StatusOK && hdr != nil {
					if e, perr := strconv.ParseUint(hdr.Get(serve.HeaderEpoch), 10, 64); perr == nil {
						if rt.noteEpoch(id, e) && !staleRetried {
							// A stale copy answered (split-brain window): try
							// once to find the fresher copy before trusting it.
							rt.mStaleEpochs.Inc()
							staleRetried = true
							if _, found := rt.locate(id); found {
								continue
							}
						}
					}
				}
				return data, status, hdr, nil
			}
		} else {
			err = fmt.Errorf("no ready backend")
		}
		if ctx.Err() != nil {
			break
		}
		if _, found := rt.locate(id); !found {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(relocateRetryPause)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		return nil, http.StatusBadGateway, nil, err
	}
	return data, status, hdr, nil
}

// ---- HTTP layer ----

// Handler returns the router's routes: the serving API forwarded along the
// ring, plus the router's own health and metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/step", rt.handleSession(http.MethodPost, "/step"))
	mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSession(http.MethodGet, ""))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSession(http.MethodDelete, ""))
	mux.HandleFunc("POST /v1/step/batch", rt.handleBatch)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /admin/backends", rt.handleBackends)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if rt.ring.Load().Len() == 0 {
			http.Error(w, "no ready backends", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// maxRouterBody mirrors the backend's request-body bound.
const maxRouterBody = 8 << 20

func (rt *Router) writeProxied(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if status == http.StatusTooManyRequests {
		// The backend shed this request; keep its back-off contract intact
		// through the proxy hop.
		h.Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// handleCreate assigns the session id (so placement follows the ring),
// forwards the create to the ring owner, and falls back across ready
// backends if it refuses.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req serve.CreateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRouterBody)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"decoding request: %v"}`, err), http.StatusBadRequest)
		return
	}
	if req.ID == "" {
		req.ID = rt.idPrefix + strconv.FormatInt(rt.nextID.Add(1), 10)
	}
	ring := rt.ring.Load()
	owner := ring.Owner(req.ID)
	if owner == "" {
		http.Error(w, `{"error":"no ready backends"}`, http.StatusServiceUnavailable)
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"%v"}`, err), http.StatusInternalServerError)
		return
	}
	targets := append([]string{owner}, ring.Nodes()...)
	for i, b := range targets {
		if i > 0 && b == owner {
			continue
		}
		data, status, err := rt.do(r.Context(), http.MethodPost, b, "/v1/sessions", body, "application/json")
		if err != nil {
			continue
		}
		if status == http.StatusCreated {
			if b != owner {
				rt.relocations.Store(req.ID, b)
			}
			rt.writeProxied(w, status, data)
			return
		}
		if status != http.StatusServiceUnavailable {
			rt.writeProxied(w, status, data)
			return
		}
	}
	http.Error(w, `{"error":"no backend accepted the session"}`, http.StatusServiceUnavailable)
}

// handleSession forwards a session-scoped request with migration chasing.
// Steps pass through the router's admission limiter: a saturated router
// answers 429 + Retry-After instead of stacking goroutines on a slow
// backend.
func (rt *Router) handleSession(method, suffix string) http.HandlerFunc {
	isStep := suffix == "/step"
	return func(w http.ResponseWriter, r *http.Request) {
		if isStep {
			if !rt.limiter.Acquire(r.Context()) {
				serve.WriteShed(w)
				return
			}
			defer rt.limiter.Release()
		}
		id := r.PathValue("id")
		var body []byte
		if method == http.MethodPost {
			var err error
			body, err = io.ReadAll(io.LimitReader(r.Body, maxRouterBody))
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":"%v"}`, err), http.StatusBadRequest)
				return
			}
		}
		data, status, _, err := rt.callSession(r.Context(), method, id, "/v1/sessions/"+id+suffix, body, "application/json")
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"%v"}`, err), status)
			return
		}
		if method == http.MethodDelete && status == http.StatusOK {
			rt.relocations.Delete(id)
			rt.epochs.Delete(id)
		}
		rt.writeProxied(w, status, data)
	}
}

// handleBatch splits a fleet tick by owning backend, forwards the
// sub-batches, and merges the per-entry results back into request order. An
// entry whose backend reports no-session gets one individual retry through
// the migration-chasing path before the error is surfaced. A backend that
// sheds (429) or times out fails only its own entries — marked shed so the
// client retries them after Retry-After — never the whole tick.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !rt.limiter.Acquire(r.Context()) {
		serve.WriteShed(w)
		return
	}
	defer rt.limiter.Release()
	var req serve.BatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRouterBody)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"decoding request: %v"}`, err), http.StatusBadRequest)
		return
	}
	if len(req.Entries) == 0 {
		http.Error(w, `{"error":"batch request carries no entries"}`, http.StatusBadRequest)
		return
	}
	if len(req.Entries) > serve.MaxBatchEntries {
		http.Error(w, fmt.Sprintf(`{"error":"batch carries %d entries, cap is %d"}`,
			len(req.Entries), serve.MaxBatchEntries), http.StatusRequestEntityTooLarge)
		return
	}
	results := make([]serve.BatchResult, len(req.Entries))
	groups := map[string][]int{} // backend -> entry indexes
	for i := range req.Entries {
		id := req.Entries[i].Session.String()
		backend, routed := rt.route(id)
		if !routed {
			results[i] = serve.BatchResult{Session: id, Status: serve.StepNoSession, Error: "no ready backend"}
			continue
		}
		groups[backend] = append(groups[backend], i)
	}
	for backend, idxs := range groups {
		sub := serve.BatchRequest{Entries: make([]serve.BatchEntry, len(idxs))}
		for j, i := range idxs {
			sub.Entries[j] = req.Entries[i]
		}
		var data []byte
		status := 0
		body, err := json.Marshal(&sub)
		if err == nil {
			data, status, err = rt.do(r.Context(), http.MethodPost, backend, "/v1/step/batch", body, "application/json")
		}
		var sresp serve.BatchResponse
		if err == nil && status == http.StatusOK &&
			json.Unmarshal(data, &sresp) == nil && len(sresp.Results) == len(idxs) {
			for j, i := range idxs {
				results[i] = sresp.Results[j]
			}
			continue
		}
		// Every other outcome fails the sub-batch's entries explicitly: a
		// result left at its zero value would read as StepOK. That covers
		// a 200 whose body does not decode or holds the wrong count.
		st, msg := serve.StepRejected, "backend unavailable"
		if err == nil && status == http.StatusTooManyRequests {
			// The backend shed the sub-batch: these entries are fine,
			// just deferred. Fail them fast as shed so the client's
			// Retry-After backoff handles recovery.
			st, msg = serve.StepShed, serve.StepShed.Text()
		} else if err != nil && errors.Is(err, context.DeadlineExceeded) {
			st, msg = serve.StepShed, "backend deadline exceeded, retry later"
		}
		for _, i := range idxs {
			results[i] = serve.BatchResult{
				Session: req.Entries[i].Session.String(),
				Status:  st,
				Error:   msg,
			}
		}
	}
	// Second chance for entries that missed: the session may have been
	// mid-migration when the sub-batch landed. Shed entries are NOT retried
	// here — re-pushing them during overload defeats the point of shedding.
	for i := range results {
		if results[i].Status != serve.StepNoSession {
			continue
		}
		if r.Context().Err() != nil {
			break
		}
		id := req.Entries[i].Session.String()
		one := serve.BatchRequest{Entries: []serve.BatchEntry{req.Entries[i]}}
		body, err := json.Marshal(&one)
		if err != nil {
			continue
		}
		if _, found := rt.locate(id); !found {
			continue
		}
		backend, routed := rt.route(id)
		if !routed {
			continue
		}
		data, status, err := rt.do(r.Context(), http.MethodPost, backend, "/v1/step/batch", body, "application/json")
		if err != nil || status != http.StatusOK {
			continue
		}
		var sresp serve.BatchResponse
		if err := json.Unmarshal(data, &sresp); err == nil && len(sresp.Results) == 1 {
			results[i] = sresp.Results[0]
		}
	}
	resp := serve.BatchResponse{Results: results}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WriteProm(w)
}

// backendState is one backend's view in GET /admin/backends.
type backendState struct {
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Sessions int    `json:"sessions"`
}

// handleBackends reports each backend's readiness and its resident-session
// gauge as of the last probe.
func (rt *Router) handleBackends(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	states := make([]backendState, 0, len(rt.backends))
	for _, b := range rt.backends {
		states = append(states, backendState{
			URL:      b,
			Ready:    rt.ready[b],
			Sessions: int(rt.backendGauge(b).Value()),
		})
	}
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"backends": states})
}
