package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"socrm/internal/il"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// Expensive shared fixtures: two distinct serialized policies (for
// hot-reload swaps) and one warm model template, built once per test
// process.
var (
	fixtureOnce  sync.Once
	policyA      []byte
	policyB      []byte
	warmTemplate *il.OnlineModels
)

func fixtures(t *testing.T) ([]byte, []byte, *il.OnlineModels) {
	t.Helper()
	fixtureOnce.Do(func() {
		p := soc.NewXU3()
		for i, out := range []*[]byte{&policyA, &policyB} {
			pol, err := TrainBootstrapPolicy(p, int64(1+i), 2, 8)
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := il.SaveMLPPolicy(&buf, pol); err != nil {
				panic(err)
			}
			*out = buf.Bytes()
		}
		warmTemplate = WarmModels(p, 1, 10)
	})
	return policyA, policyB, warmTemplate
}

// writeAtomic replaces path without ever exposing a partial file — what a
// real deployment's policy push does, and what hot reload must tolerate.
func writeAtomic(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer stands up a daemon with a loaded policy file and warm
// models, backed by httptest.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server, string) {
	t.Helper()
	polBytes, _, models := fixtures(t)
	path := filepath.Join(t.TempDir(), "policy.bin")
	writeAtomic(t, path, polBytes)
	p := soc.NewXU3()
	store := NewPolicyStore(path, p)
	if err := store.Load(); err != nil {
		t.Fatal(err)
	}
	opt := Options{Platform: p, Store: store, Models: models, SeedBase: 7}
	if mutate != nil {
		mutate(&opt)
	}
	srv := New(opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, path
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	hc := ts.Client()

	var created CreateResponse
	if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: PolicyOnlineIL}, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatal("create returned empty session id")
	}

	// Close the loop for 100 steps: execute the decided configuration on a
	// client-side platform and post the resulting counters.
	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	cfg := p.Clamp(created.Start)
	stepURL := fmt.Sprintf("%s/v1/sessions/%s/step", ts.URL, created.ID)
	for i := 0; i < 100; i++ {
		sn := app.Snippets[i%len(app.Snippets)]
		res := p.Execute(sn, cfg)
		var resp StepResponse
		err := call(hc, http.MethodPost, stepURL, StepRequest{StepTelemetry: StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: sn.Threads,
			TimeS: res.Time, EnergyJ: res.Energy,
		}}, &resp)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !p.Valid(resp.Config) {
			t.Fatalf("step %d returned invalid config %+v", i, resp.Config)
		}
		cfg = resp.Config
	}

	var info SessionInfo
	if err := call(hc, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.Steps != 100 {
		t.Fatalf("info.Steps = %d, want 100", info.Steps)
	}
	if info.EnergyJ <= 0 {
		t.Fatalf("info.EnergyJ = %v, want > 0", info.EnergyJ)
	}
	if info.Updates == 0 {
		t.Fatal("online-il session never retrained its policy in 100 steps")
	}

	if err := call(hc, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil); err != nil {
		t.Fatal(err)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after close", srv.SessionCount())
	}
	err := call(hc, http.MethodPost, stepURL, StepRequest{}, nil)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("step after close: err = %v, want 404", err)
	}
}

// TestCreateRejectsUnknownPolicy: an unknown policy is a 400 that names
// it, and a huge name is quoted only by a short prefix. offline-tree, the
// regression-tree policy, runs only in-process (socsim, Table II) and is
// unknown to the daemon.
func TestCreateRejectsUnknownPolicy(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, name := range []string{"nope", "offline-tree", strings.Repeat("a", 1<<20)} {
		err := call(ts.Client(), http.MethodPost, ts.URL+"/v1/sessions",
			CreateRequest{Policy: name}, nil)
		if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "unknown policy") {
			t.Fatalf("%d-byte name: err = %.200v, want a 400 unknown-policy rejection", len(name), err)
		}
		if n := len(err.Error()); n > 300 {
			t.Fatalf("%d-byte name: the error is %d bytes, want the name quoted by a short prefix", len(name), n)
		}
	}
}

// countingReader serves n bytes of a JSON create body, {"policy":"aaa…"},
// and counts how many a reader took.
type countingReader struct {
	n, read int
}

func (r *countingReader) Read(p []byte) (int, error) {
	const head, tail = `{"policy":"`, `"}`
	if r.read >= r.n {
		return 0, io.EOF
	}
	k := min(len(p), r.n-r.read)
	for i := range p[:k] {
		switch off := r.read + i; {
		case off < len(head):
			p[i] = head[off]
		case off >= r.n-len(tail):
			p[i] = tail[off-(r.n-len(tail))]
		default:
			p[i] = 'a'
		}
	}
	r.read += k
	return k, nil
}

// TestCreateBodyBounded: POST /v1/sessions reads at most maxStepBody + 1
// bytes of a body and answers 413 past the bound, without echoing the body.
func TestCreateBodyBounded(t *testing.T) {
	srv := New(Options{})
	body := &countingReader{n: 9 << 20}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", body))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("9 MiB create body: status %d, want 413", w.Code)
	}
	if body.read > maxStepBody+1 {
		t.Fatalf("handler read %d bytes of the body, want at most %d", body.read, maxStepBody+1)
	}
	if w.Body.Len() > 1<<10 {
		t.Fatalf("413 response carries %d bytes", w.Body.Len())
	}
	// A body inside the bound still creates.
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"policy":"ondemand"}`)))
	if w.Code != http.StatusCreated {
		t.Fatalf("small create body: status %d, want 201", w.Code)
	}
}

func TestGovernorOnlyServer(t *testing.T) {
	// Without a policy store the daemon still serves heuristic governors
	// but refuses IL policies with a diagnosable error.
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var created CreateResponse
	if err := call(ts.Client(), http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: "ondemand"}, &created); err != nil {
		t.Fatal(err)
	}
	err := call(ts.Client(), http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: PolicyOfflineIL}, nil)
	if err == nil || !strings.Contains(err.Error(), "policy file") {
		t.Fatalf("err = %v, want policy-file requirement", err)
	}
}

func TestMaxSessionsBound(t *testing.T) {
	_, ts, _ := newTestServer(t, func(o *Options) { o.MaxSessions = 2 })
	hc := ts.Client()
	for i := 0; i < 2; i++ {
		if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
			CreateRequest{Policy: "performance"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: "performance"}, nil)
	if err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("err = %v, want session-limit rejection", err)
	}
}

// TestStepAdmissionSheds: with the backend's only admission slot held and
// no wait queue, both step endpoints shed with 429 + Retry-After before
// touching the body or the session registry.
func TestStepAdmissionSheds(t *testing.T) {
	srv, ts, _ := newTestServer(t, func(o *Options) { o.StepInflight = 1 })
	if !srv.limiter.Acquire(context.Background()) {
		t.Fatal("could not claim the only admission slot")
	}
	defer srv.limiter.Release()
	for _, path := range []string{"/v1/sessions/s-1/step", "/v1/step/batch"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("POST %s = %d, Retry-After %q; want 429, \"1\"",
				path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if got := srv.Metrics().Meter("socserved_step_shed_total", "").Value(); got != 2 {
		t.Fatalf("socserved_step_shed_total = %v, want 2", got)
	}
}

func TestBatchStep(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	hc := ts.Client()
	var created CreateResponse
	if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: PolicyOfflineIL}, &created); err != nil {
		t.Fatal(err)
	}
	p := soc.NewXU3()
	app := workload.MiBench(3)[1]
	cfg := p.Clamp(created.Start)
	req := StepRequest{}
	for k := 0; k < 5; k++ {
		res := p.Execute(app.Snippets[k], cfg)
		req.Steps = append(req.Steps, StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: 1,
			TimeS: res.Time, EnergyJ: res.Energy,
		})
	}
	var resp StepResponse
	stepURL := fmt.Sprintf("%s/v1/sessions/%s/step", ts.URL, created.ID)
	if err := call(hc, http.MethodPost, stepURL, req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Configs) != 5 {
		t.Fatalf("batch returned %d configs, want 5", len(resp.Configs))
	}
	if resp.Step != 5 {
		t.Fatalf("resp.Step = %d, want 5", resp.Step)
	}
}

// TestHotReloadUnderConcurrentTraffic rewrites the policy file and reloads
// it while sessions are created, stepped and closed — the -race proof that
// the load/decide path and the reload path do not share unguarded state.
func TestHotReloadUnderConcurrentTraffic(t *testing.T) {
	srv, ts, path := newTestServer(t, nil)
	polA, polB, _ := fixtures(t)
	hc := ts.Client()

	const reloads = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the policy pusher
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			next := polA
			if i%2 == 0 {
				next = polB
			}
			writeAtomic(t, path, next)
			if err := call(hc, http.MethodPost, ts.URL+"/admin/reload", nil, nil); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	p := soc.NewXU3()
	app := workload.MiBench(5)[2]
	for w := 0; w < 4; w++ { // concurrent traffic
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				var created CreateResponse
				if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
					CreateRequest{Policy: PolicyOfflineIL}, &created); err != nil {
					t.Errorf("worker %d: create: %v", w, err)
					return
				}
				cfg := p.Clamp(created.Start)
				stepURL := fmt.Sprintf("%s/v1/sessions/%s/step", ts.URL, created.ID)
				for i := 0; i < 20; i++ {
					res := p.Execute(app.Snippets[i%len(app.Snippets)], cfg)
					var resp StepResponse
					err := call(hc, http.MethodPost, stepURL, StepRequest{StepTelemetry: StepTelemetry{
						Counters: res.Counters, Config: cfg, Threads: 1,
					}}, &resp)
					if err != nil {
						t.Errorf("worker %d: step: %v", w, err)
						return
					}
					cfg = resp.Config
				}
				if err := call(hc, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil); err != nil {
					t.Errorf("worker %d: close: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Initial load is generation 1; every successful reload adds one.
	if got := srv.Metrics(); got == nil {
		t.Fatal("nil registry")
	}
	if gen := srv.store.Generation(); gen != 1+reloads {
		t.Fatalf("generation = %d, want %d", gen, 1+reloads)
	}
}

// deviceRecord executes snippet i of seq (wrapping) at cfg on the client
// side, as a device agent would, and returns the telemetry it posts.
func deviceRecord(p *soc.Platform, seq *workload.Sequence, i int, cfg soc.Config) StepTelemetry {
	sn := seq.Snippets[i%seq.Len()]
	res := p.Execute(sn, cfg)
	return StepTelemetry{
		Counters: res.Counters, Config: cfg, Threads: sn.Threads,
		TimeS: res.Time, EnergyJ: res.Energy,
	}
}

// TestReplaySoak is the acceptance load test: 64 concurrent devices x
// 1000 closed-loop steps through the public HTTP API with zero races and a
// populated latency histogram. -short scales it down for quick local
// iteration.
func TestReplaySoak(t *testing.T) {
	clients, steps := 64, 1000
	if testing.Short() {
		clients, steps = 8, 60
	}
	srv, ts, _ := newTestServer(t, func(o *Options) { o.MaxSessions = clients })
	hc := ts.Client()
	p := soc.NewXU3()
	energy := make([]float64, clients)
	done := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(11 + c)
			seq := workload.NewSequence(workload.AllApps(seed)...)
			var created CreateResponse
			if errs[c] = call(hc, http.MethodPost, ts.URL+"/v1/sessions",
				CreateRequest{Policy: PolicyOfflineIL, Seed: &seed}, &created); errs[c] != nil {
				return
			}
			stepURL := ts.URL + "/v1/sessions/" + created.ID + "/step"
			cfg := p.Clamp(created.Start)
			for i := range steps {
				rec := deviceRecord(p, seq, i, cfg)
				var resp StepResponse
				if errs[c] = call(hc, http.MethodPost, stepURL, StepRequest{StepTelemetry: rec}, &resp); errs[c] != nil {
					return
				}
				energy[c] += rec.EnergyJ
				done[c]++
				cfg = p.Clamp(resp.Config)
			}
			errs[c] = call(hc, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil)
		}()
	}
	wg.Wait()
	total, totalJ := 0, 0.0
	for c := range clients {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		total += done[c]
		totalJ += energy[c]
	}
	if total != clients*steps {
		t.Fatalf("steps = %d, want %d", total, clients*steps)
	}
	if totalJ <= 0 {
		t.Fatalf("energy = %v J, want > 0", totalJ)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions leaked after the soak", srv.SessionCount())
	}
	h := srv.DecideLatency()
	if h.Count() != uint64(clients*steps) {
		t.Fatalf("latency count = %d, want %d", h.Count(), clients*steps)
	}
	if h.Quantile(0.99) <= 0 {
		t.Fatal("p99 latency not populated")
	}

	// The daemon's whole point: p99 must be scraping-visible on /metrics.
	resp, err := hc.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`socserved_decide_latency_seconds{quantile="0.99"}`,
		fmt.Sprintf("socserved_steps_total %d", clients*steps),
		fmt.Sprintf("socserved_sessions_closed_total %d", clients),
		"socserved_energy_joules_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestReplayBatching exercises the batched step path end to end: 4
// devices post 50 records each over HTTP in steps arrays of 10, and every
// record is one decision.
func TestReplayBatching(t *testing.T) {
	const clients, steps, batch = 4, 50, 10
	srv, ts, _ := newTestServer(t, nil)
	hc := ts.Client()
	p := soc.NewXU3()
	for c := range clients {
		seed := int64(3 + c)
		seq := workload.NewSequence(workload.AllApps(seed)...)
		var created CreateResponse
		if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
			CreateRequest{Policy: "ondemand", Seed: &seed}, &created); err != nil {
			t.Fatal(err)
		}
		cfg := p.Clamp(created.Start)
		for i := 0; i < steps; i += batch {
			var req StepRequest
			for k := range batch {
				req.Steps = append(req.Steps, deviceRecord(p, seq, i+k, cfg))
			}
			var resp StepResponse
			if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/step", req, &resp); err != nil {
				t.Fatalf("client %d step %d: %v", c, i, err)
			}
			if len(resp.Configs) != batch || resp.Step != uint64(i+batch) {
				t.Fatalf("client %d step %d: %d configs at step %d, want %d at %d",
					c, i, len(resp.Configs), resp.Step, batch, i+batch)
			}
			cfg = p.Clamp(resp.Config)
		}
	}
	if got := srv.DecideLatency().Count(); got != clients*steps {
		t.Fatalf("latency count = %d, want %d (one decision per batched record)", got, clients*steps)
	}
}

func TestPolicyStoreSurvivesBadFile(t *testing.T) {
	_, ts, path := newTestServer(t, nil)
	hc := ts.Client()
	writeAtomic(t, path, []byte("{corrupt"))
	err := call(hc, http.MethodPost, ts.URL+"/admin/reload", nil, nil)
	if err == nil {
		t.Fatal("reload of a corrupt file must fail")
	}
	// The previously loaded policy must keep serving.
	var created CreateResponse
	if err := call(hc, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: PolicyOfflineIL}, &created); err != nil {
		t.Fatalf("sessions must keep working after a failed reload: %v", err)
	}
}

// TestReloadRefusesJSONPolicy: a policy file in the retired JSON format is
// refused with an error naming the binary format, and the store keeps
// serving the generation it had.
func TestReloadRefusesJSONPolicy(t *testing.T) {
	srv, _, path := newTestServer(t, nil)
	gen := srv.store.Generation()
	writeAtomic(t, path, []byte(`{"version":1,"kind":"mlp","scaler":{"Mean":[],"Std":[]},"net":{"sizes":[13,4]}}`))
	err := srv.Reload()
	if err == nil || !strings.Contains(err.Error(), "binary policy file") {
		t.Fatalf("reload of a JSON policy: err = %v, want a binary-format rejection", err)
	}
	if got := srv.store.Generation(); got != gen {
		t.Fatalf("generation %d after a refused reload, want %d", got, gen)
	}
	if _, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL}); err != nil {
		t.Fatalf("sessions must keep working after a refused reload: %v", err)
	}
}

// TestStepDecoderSurvivesHostileBodies guards the persistent per-scratch
// JSON decoder of the step path: a malformed body must not leave a sticky
// error for the next request, and trailing garbage after a valid value
// must never leak into a later request's decode. Requests run sequentially
// against the handler, so the pooled scratch (and its decoder) is reused
// across the hostile/clean alternation.
func TestStepDecoderSurvivesHostileBodies(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	h := srv.Handler()
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	res := p.Execute(app.Snippets[0], p.Clamp(created.Start))
	good, err := json.Marshal(StepRequest{StepTelemetry: StepTelemetry{
		Counters: res.Counters, Config: p.Clamp(created.Start), Threads: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	url := "/v1/sessions/" + created.ID + "/step"
	do := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
		return w
	}
	hostile := []string{
		"{not json",                    // malformed: decoder error state
		string(good) + "{\"steps\":[]", // valid value, poisoned tail
		string(good) + string(good),    // a second full value in the body
		"",                             // empty body
		"   \n\t ",                     // whitespace only
	}
	for round := 0; round < 20; round++ {
		bad := hostile[round%len(hostile)]
		if w := do(bad); w.Code == http.StatusOK && strings.TrimSpace(bad) == "" {
			t.Fatalf("round %d: empty body must not succeed", round)
		}
		w := do(string(good))
		if w.Code != http.StatusOK {
			t.Fatalf("round %d: clean request after %q got %d: %s", round, bad, w.Code, w.Body.String())
		}
		var resp StepResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("round %d: bad response: %v", round, err)
		}
		if !p.Valid(resp.Config) {
			t.Fatalf("round %d: invalid config %+v", round, resp.Config)
		}
	}
}

// blockingBody yields its payload, then blocks on Read until closed —
// the shape of a chunked request whose client keeps the stream open
// while waiting for the response. The step handler must never read past
// the decoded value (a trailing-data probe that refills from the body
// would deadlock: client waits on server, server on client).
type blockingBody struct {
	payload *bytes.Reader
	release chan struct{}
}

func (b *blockingBody) Read(p []byte) (int, error) {
	n, err := b.payload.Read(p)
	if n > 0 {
		return n, nil
	}
	_ = err
	<-b.release // block like a live chunked stream with no data yet
	return 0, io.EOF
}
func (b *blockingBody) Close() error { return nil }

func TestStepDoesNotBlockOnStreamingBody(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	h := srv.Handler()
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	res := p.Execute(app.Snippets[0], p.Clamp(created.Start))
	good, err := json.Marshal(StepRequest{StepTelemetry: StepTelemetry{
		Counters: res.Counters, Config: p.Clamp(created.Start), Threads: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	body := &blockingBody{payload: bytes.NewReader(good), release: make(chan struct{})}
	defer close(body.release)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+created.ID+"/step", body)
	req.ContentLength = -1 // streaming: length unknown
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w
	}()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Fatalf("streaming step got %d: %s", w.Code, w.Body.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("step handler blocked reading past the decoded value on a streaming body")
	}
}

// TestReadyz covers the readiness gate: ready when serving normally, not
// ready before a policy is loaded, and liveness independent of both.
func TestReadyz(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready server: /readyz = %d, want 200", resp.StatusCode)
	}
	// /healthz stays pure liveness, independent of readiness conditions.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}

	// A store that never loaded must fail readiness (but not liveness).
	cold := New(Options{Platform: soc.NewXU3(), Store: NewPolicyStore("missing.json", soc.NewXU3())})
	w := httptest.NewRecorder()
	cold.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded store: /readyz = %d, want 503", w.Code)
	}
	w = httptest.NewRecorder()
	cold.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("unloaded store: /healthz = %d, want 200", w.Code)
	}
}

// TestBatchStatusCodes pins the enum outcomes of the fleet-tick endpoint:
// zero/absent status for stepped entries, StepNoSession with the constant
// error text for unknown ids, StepRejected when the session refuses.
func TestBatchStatusCodes(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	closedSess, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	// Mark the session closed without removing it — the in-registry refusal
	// a client racing a delete would see — so the entry exercises
	// StepRejected rather than StepNoSession.
	srv.sessions.get(closedSess.ID).close()
	p := soc.NewXU3()
	app := workload.MiBench(4)[0]
	cfg := p.Clamp(created.Start)
	res := p.Execute(app.Snippets[0], cfg)
	tel := StepTelemetry{Counters: res.Counters, Config: cfg, Threads: 1}
	results := srv.StepBatch([]BatchEntry{
		{Session: SessionRef(created.ID), Steps: []StepTelemetry{tel}},
		{Session: SessionRef("s-ghost"), Steps: []StepTelemetry{tel}},
		{Session: SessionRef(closedSess.ID), Steps: []StepTelemetry{tel}},
	}, nil)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Status != StepOK || results[0].Error != "" || results[0].Session != created.ID {
		t.Fatalf("live entry: %+v, want StepOK with interned id", results[0])
	}
	if results[1].Status != StepNoSession || results[1].Error != StepNoSession.Text() || results[1].Session != "s-ghost" {
		t.Fatalf("ghost entry: %+v, want StepNoSession %q", results[1], StepNoSession.Text())
	}
	if results[2].Status != StepRejected || results[2].Error == "" {
		t.Fatalf("closed entry: %+v, want StepRejected with detail", results[2])
	}
	if StepStatus(200).Text() != "unknown status" {
		t.Fatal("out-of-range status must not panic")
	}
}

// call performs one JSON request/response round trip, surfacing the
// server's error body on non-2xx statuses.
func call(hc *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
