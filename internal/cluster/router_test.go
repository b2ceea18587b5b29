package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"socrm/internal/serve"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// testBackend is one cluster member: a governor-only serving daemon wrapped
// in the drain admin surface, the way `-mode backend` wires it.
type testBackend struct {
	srv *serve.Server
	dr  *Drainer
	ts  *httptest.Server
}

// newCluster stands up n backends and a probed router over them. Governor
// policies need no policy store, which keeps the fixtures cheap — the
// snapshot codec itself is covered policy-by-policy in the serve package.
func newCluster(t *testing.T, n int) ([]*testBackend, *Router, *httptest.Server) {
	t.Helper()
	p := soc.NewXU3()
	backends := make([]*testBackend, n)
	urls := make([]string, n)
	for i := range backends {
		srv := serve.New(serve.Options{Platform: p})
		dr := &Drainer{Server: srv}
		ts := httptest.NewServer(BackendHandler(dr))
		t.Cleanup(ts.Close)
		dr.Self = ts.URL
		backends[i] = &testBackend{srv: srv, dr: dr, ts: ts}
		urls[i] = ts.URL
	}
	for _, b := range backends {
		b.dr.Peers = urls
	}
	rt := NewRouter(RouterOptions{Backends: urls})
	if !rt.Probe() {
		t.Fatal("initial probe found no change (expected ring build)")
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return backends, rt, front
}

// telemetry builds one valid closed-loop telemetry sample.
func telemetry() serve.StepTelemetry {
	p := soc.NewXU3()
	sn := workload.MiBench(3)[0].Snippets[0]
	cfg := p.Clamp(soc.Config{NLittle: 4, NBig: 4})
	res := p.Execute(sn, cfg)
	return serve.StepTelemetry{Counters: res.Counters, Config: cfg,
		Threads: sn.Threads, TimeS: res.Time, EnergyJ: res.Energy}
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// TestRouterPlacesSessionsOnRingOwner: a create through the router must land
// the session on the backend the ring names, so that the drainer — computing
// placement independently — agrees with the router about where things go.
func TestRouterPlacesSessionsOnRingOwner(t *testing.T) {
	backends, rt, front := newCluster(t, 2)

	const n = 16
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create %d = %d", i, code)
		}
		if !strings.HasPrefix(created.ID, "r-") {
			t.Fatalf("router-assigned id = %q, want r- prefix", created.ID)
		}
		ids = append(ids, created.ID)
	}

	ring := rt.Ring()
	byURL := map[string]*testBackend{}
	for _, b := range backends {
		byURL[b.ts.URL] = b
	}
	total := 0
	for _, id := range ids {
		owner := byURL[ring.Owner(id)]
		found := false
		for _, have := range owner.srv.SessionIDs() {
			if have == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("session %s not resident on its ring owner %s", id, owner.ts.URL)
		}
	}
	// Distribution over the random-port URLs is the ring's business (covered
	// statistically in TestRingBalance); here only conservation matters.
	for _, b := range backends {
		total += b.srv.SessionCount()
	}
	if total != n {
		t.Fatalf("cluster holds %d sessions, want %d", total, n)
	}

	// Step and fetch every session through the router.
	tel := telemetry()
	for _, id := range ids {
		var stepped serve.StepResponse
		if code := postJSON(t, front.URL+"/v1/sessions/"+id+"/step",
			serve.StepRequest{StepTelemetry: tel}, &stepped); code != http.StatusOK {
			t.Fatalf("step %s via router = %d", id, code)
		}
		resp, err := http.Get(front.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s via router = %d", id, resp.StatusCode)
		}
	}

	// Delete one through the router and confirm it is gone cluster-wide.
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/sessions/"+ids[0], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE via router = %d", resp.StatusCode)
	}
	if got := backends[0].srv.SessionCount() + backends[1].srv.SessionCount(); got != n-1 {
		t.Fatalf("after delete cluster holds %d, want %d", got, n-1)
	}
}

// TestRouterBatchSplitsAcrossBackends: one batch request fans out to every
// owning backend and merges results back in request order.
func TestRouterBatchSplitsAcrossBackends(t *testing.T) {
	_, _, front := newCluster(t, 2)

	const n = 8
	ids := make([]serve.SessionRef, n)
	for i := range ids {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "ondemand"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		ids[i] = serve.SessionRef(created.ID)
	}

	tel := telemetry()
	entries := make([]serve.BatchEntry, n)
	for i := range entries {
		entries[i] = serve.BatchEntry{Session: ids[i], Steps: []serve.StepTelemetry{tel}}
	}
	var out serve.BatchResponse
	if code := postJSON(t, front.URL+"/v1/step/batch",
		serve.BatchRequest{Entries: entries}, &out); code != http.StatusOK {
		t.Fatalf("batch via router = %d", code)
	}
	if len(out.Results) != n {
		t.Fatalf("batch returned %d results, want %d", len(out.Results), n)
	}
	for i, r := range out.Results {
		if r.Status != serve.StepOK {
			t.Fatalf("batch entry %d status = %v", i, r.Status)
		}
	}
}

// TestDrainMovesEverySession: draining one backend hands every resident
// session to the survivor — zero lost, zero left behind — and the router
// keeps serving all of them after its next probe.
func TestDrainMovesEverySession(t *testing.T) {
	backends, rt, front := newCluster(t, 2)

	const n = 12
	ids := make([]string, n)
	tel := telemetry()
	for i := range ids {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		ids[i] = created.ID
		var stepped serve.StepResponse
		if code := postJSON(t, front.URL+"/v1/sessions/"+created.ID+"/step",
			serve.StepRequest{StepTelemetry: tel}, &stepped); code != http.StatusOK {
			t.Fatalf("pre-drain step = %d", code)
		}
	}

	victim, survivor := backends[0], backends[1]
	resp, err := http.Post(victim.ts.URL+"/admin/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, body)
	}
	if victim.srv.SessionCount() != 0 {
		t.Fatalf("victim still holds %d sessions after drain", victim.srv.SessionCount())
	}
	if survivor.srv.SessionCount() != n {
		t.Fatalf("survivor holds %d sessions, want %d", survivor.srv.SessionCount(), n)
	}

	rt.Probe() // notice the drained backend went unready
	if ring := rt.Ring(); ring.Has(victim.ts.URL) || !ring.Has(survivor.ts.URL) {
		t.Fatalf("post-drain ring = %v, want survivor only", ring.Nodes())
	}
	for _, id := range ids {
		var stepped serve.StepResponse
		if code := postJSON(t, front.URL+"/v1/sessions/"+id+"/step",
			serve.StepRequest{StepTelemetry: tel}, &stepped); code != http.StatusOK {
			t.Fatalf("post-drain step %s via router = %d", id, code)
		}
	}
}

// TestDrainUnderLoadZeroStepErrors is the headline acceptance check: client
// steps hammer the router while a backend drains, and not one step may
// surface an error — the relocation chase absorbs the entire handoff window.
func TestDrainUnderLoadZeroStepErrors(t *testing.T) {
	backends, rt, front := newCluster(t, 2)

	const n = 10
	ids := make([]string, n)
	tel := telemetry()
	for i := range ids {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "ondemand"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		ids[i] = created.ID
	}

	var stop atomic.Bool
	var stepErrs atomic.Int64
	var steps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.StepRequest{StepTelemetry: tel})
			for i := 0; !stop.Load(); i++ {
				id := ids[(i+w)%n]
				resp, err := http.Post(front.URL+"/v1/sessions/"+id+"/step",
					"application/json", bytes.NewReader(body))
				if err != nil {
					stepErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					stepErrs.Add(1)
				}
				steps.Add(1)
			}
		}(w)
	}

	resp, err := http.Post(backends[0].ts.URL+"/admin/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.Probe()
	// Let the steppers run a while against the post-drain topology too.
	for steps.Load() < 400 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if e := stepErrs.Load(); e != 0 {
		t.Fatalf("%d of %d steps errored during drain; want 0", e, steps.Load())
	}
	if got := backends[1].srv.SessionCount(); got != n {
		t.Fatalf("survivor holds %d sessions, want %d", got, n)
	}
}

// TestDrainWithNoPeersKeepsSessions: a lone backend asked to drain must
// refuse rather than drop its sessions.
func TestDrainWithNoPeersKeepsSessions(t *testing.T) {
	p := soc.NewXU3()
	srv := serve.New(serve.Options{Platform: p})
	dr := &Drainer{Server: srv}
	ts := httptest.NewServer(BackendHandler(dr))
	t.Cleanup(ts.Close)
	dr.Self = ts.URL
	dr.Peers = []string{ts.URL} // only itself: no eligible targets

	if _, err := srv.CreateSession(serve.CreateRequest{Policy: "ondemand"}); err != nil {
		t.Fatal(err)
	}
	rep, err := dr.Drain()
	if err == nil {
		t.Fatal("drain with no peers succeeded; want refusal")
	}
	// socserved logs this error as is, so it carries the one "drain: " prefix.
	if want := "drain: no ready peers; 1 sessions stay resident"; err.Error() != want {
		t.Fatalf("drain error %q, want %q", err, want)
	}
	if rep.Remaining != 1 || srv.SessionCount() != 1 {
		t.Fatalf("drain dropped sessions: remaining=%d resident=%d", rep.Remaining, srv.SessionCount())
	}
}

// TestRouterMigratesOnTopologyChange: when a backend vanishes without a
// graceful drain (probe failure), the router rebalances the survivors'
// sessions to the new ring on its own.
func TestRouterMigratesOnTopologyChange(t *testing.T) {
	backends, rt, front := newCluster(t, 3)

	const n = 18
	for i := 0; i < n; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
	}

	// Kill one backend abruptly: its sessions die with it (no drain), but the
	// survivors' sessions must be re-homed to the 2-node ring so the router
	// and any future drainer agree on placement again.
	dead := backends[2]
	lost := dead.srv.SessionCount()
	dead.ts.Close()
	// A silent death (connection refused, no 503) is debounced: the router
	// marks the backend failed only after FailAfter consecutive misses.
	changed := false
	for i := 0; i < 3 && !changed; i++ {
		changed = rt.Probe()
	}
	if !changed {
		t.Fatal("probe did not notice the dead backend within the failure threshold")
	}
	ring := rt.Ring()
	if ring.Has(dead.ts.URL) {
		t.Fatal("dead backend still on the ring")
	}
	stillThere := 0
	for _, b := range backends[:2] {
		for _, id := range b.srv.SessionIDs() {
			if ring.Owner(id) != b.ts.URL {
				t.Fatalf("session %s resident on %s but owned by %s after rebalance",
					id, b.ts.URL, ring.Owner(id))
			}
		}
		stillThere += b.srv.SessionCount()
	}
	if stillThere != n-lost {
		t.Fatalf("rebalance lost sessions: %d resident, want %d", stillThere, n-lost)
	}
}

// TestRouterMetricsExposed: the router serves its own Prometheus surface.
func TestRouterMetricsExposed(t *testing.T) {
	_, _, front := newCluster(t, 2)
	var created serve.CreateResponse
	if code := postJSON(t, front.URL+"/v1/sessions",
		serve.CreateRequest{Policy: "ondemand"}, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"socrouted_backends_ready", "socrouted_proxied_requests_total",
		"socrouted_migrations_total", "socrouted_backend_sessions",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router /metrics missing %s:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "socrouted_backends_ready 2") {
		t.Fatalf("backends_ready gauge not 2:\n%s", text)
	}
}

// TestRouterReadyz: an empty ring answers unready; a populated one ready.
func TestRouterReadyz(t *testing.T) {
	rt := NewRouter(RouterOptions{Backends: []string{"http://127.0.0.1:1"}})
	rt.Probe() // nothing answers: ring stays empty
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty ring = %d, want 503", resp.StatusCode)
	}

	_, _, front2 := newCluster(t, 1)
	resp, err = http.Get(front2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with live backend = %d, want 200", resp.StatusCode)
	}
}

// TestRouterRestartSkipsAssignedIDs: a fresh router over backends that
// already hold r-1..r-3 must answer its first create with r-4, not a 409 per
// id it assigned before the restart. Another instance's ids ("r2-9") belong
// to that router and do not move this one's counter.
func TestRouterRestartSkipsAssignedIDs(t *testing.T) {
	backends, _, front := newCluster(t, 2)
	for i := 1; i <= 3; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create %d = %d", i, code)
		}
	}
	if code := postJSON(t, front.URL+"/v1/sessions",
		serve.CreateRequest{Policy: "interactive", ID: "r2-9"}, nil); code != http.StatusCreated {
		t.Fatalf("create r2-9 = %d", code)
	}

	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	restarted := NewRouter(RouterOptions{Backends: urls})
	restarted.Probe()
	front2 := httptest.NewServer(restarted.Handler())
	defer front2.Close()
	var created serve.CreateResponse
	if code := postJSON(t, front2.URL+"/v1/sessions",
		serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
		t.Fatalf("first create through the restarted router = %d, want 201", code)
	}
	if created.ID != "r-4" {
		t.Fatalf("first id from the restarted router = %q, want r-4", created.ID)
	}
}

// TestAdminBackends: GET /admin/backends reports each backend's readiness
// and the same per-backend session count as the router's
// socrouted_backend_sessions gauge; a drained backend reads not-ready with
// 0 sessions and the survivor holds them all.
func TestAdminBackends(t *testing.T) {
	backends, rt, front := newCluster(t, 2)
	const n = 8
	for i := 0; i < n; i++ {
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, nil); code != http.StatusCreated {
			t.Fatalf("create %d = %d", i, code)
		}
	}
	get := func() map[string]backendState {
		t.Helper()
		resp, err := http.Get(front.URL + "/admin/backends")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Backends []backendState `json:"backends"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		m := map[string]backendState{}
		for _, s := range out.Backends {
			m[s.URL] = s
		}
		if len(m) != len(backends) {
			t.Fatalf("/admin/backends lists %d backends, want %d", len(m), len(backends))
		}
		return m
	}

	rt.Probe()
	states := get()
	for _, b := range backends {
		s := states[b.ts.URL]
		gauge := int(rt.backendGauge(b.ts.URL).Value())
		if !s.Ready || s.Sessions != gauge || s.Sessions != b.srv.SessionCount() {
			t.Fatalf("%s: %+v, gauge %d, resident %d", b.ts.URL, s, gauge, b.srv.SessionCount())
		}
	}

	victim, survivor := backends[0], backends[1]
	resp, err := http.Post(victim.ts.URL+"/admin/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rt.Probe()
	states = get()
	if s := states[victim.ts.URL]; s.Ready || s.Sessions != 0 {
		t.Fatalf("drained backend reads %+v, want not ready with 0 sessions", s)
	}
	if s := states[survivor.ts.URL]; !s.Ready || s.Sessions != n {
		t.Fatalf("survivor reads %+v, want ready with %d sessions", s, n)
	}
}
