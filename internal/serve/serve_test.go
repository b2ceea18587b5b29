package serve

import (
	"bytes"
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

func TestCreateRejectsUnknownPolicy(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	err := call(ts.Client(), http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Policy: "nope"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v, want unknown-policy rejection", err)
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

// TestReplaySoak is the acceptance load test: 64 concurrent sessions x
// 1000 steps through the public HTTP API with zero races and a populated
// latency histogram. -short scales it down for quick local iteration.
func TestReplaySoak(t *testing.T) {
	clients, steps := 64, 1000
	if testing.Short() {
		clients, steps = 8, 60
	}
	srv, ts, _ := newTestServer(t, func(o *Options) { o.MaxSessions = clients })
	stats, err := Replay(ReplayOptions{
		BaseURL:    ts.URL,
		Clients:    clients,
		Steps:      steps,
		Policy:     PolicyOfflineIL,
		Seed:       11,
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != clients*steps {
		t.Fatalf("stats.Steps = %d, want %d", stats.Steps, clients*steps)
	}
	if stats.EnergyJ <= 0 {
		t.Fatalf("stats.EnergyJ = %v, want > 0", stats.EnergyJ)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions leaked after replay", srv.SessionCount())
	}
	h := srv.DecideLatency()
	if h.Count() != uint64(clients*steps) {
		t.Fatalf("latency count = %d, want %d", h.Count(), clients*steps)
	}
	if h.Quantile(0.99) <= 0 {
		t.Fatal("p99 latency not populated")
	}

	// The daemon's whole point: p99 must be scraping-visible on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
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

// TestReplayBatching exercises the batched step path end to end.
func TestReplayBatching(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	stats, err := Replay(ReplayOptions{
		BaseURL:    ts.URL,
		Clients:    4,
		Steps:      50,
		Batch:      10,
		Policy:     "ondemand",
		Seed:       3,
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 200 {
		t.Fatalf("stats.Steps = %d, want 200", stats.Steps)
	}
	if got := srv.DecideLatency().Count(); got != 200 {
		t.Fatalf("latency count = %d, want 200 (one decision per batched record)", got)
	}
}

func TestReplayValidatesOptions(t *testing.T) {
	if _, err := Replay(ReplayOptions{Clients: 0, Steps: 10}); err == nil {
		t.Fatal("zero clients must be rejected")
	}
	if _, err := Replay(ReplayOptions{Clients: -3, Steps: 10}); err == nil {
		t.Fatal("negative clients must be rejected")
	}
	if _, err := Replay(ReplayOptions{Clients: 1, Steps: -1}); err == nil {
		t.Fatal("negative steps must be rejected")
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
