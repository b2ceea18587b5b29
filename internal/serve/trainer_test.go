package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"socrm/internal/il"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// TestAsyncTrainingSoak drives concurrent online-IL sessions against a
// server running the background trainer pool and checks the pipeline end
// to end: experience queues fill on the step path, workers drain them,
// retrained policies are published by snapshot swap mid-flight, and the
// trainer metrics account for it. Run under -race in CI, this is the
// serving-layer half of the concurrency proof (the il-level soak covers a
// single learner).
func TestAsyncTrainingSoak(t *testing.T) {
	srv, _, _ := newTestServer(t, func(o *Options) {
		o.TrainWorkers = 2
		o.CrossBatch = 4
	})
	defer srv.Close()
	clients, steps := 8, 250
	if testing.Short() {
		clients, steps = 4, 80
	}
	stats, err := Replay(ReplayOptions{
		Server:  srv,
		Clients: clients,
		Steps:   steps,
		Policy:  PolicyOnlineIL,
		Seed:    21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != clients*steps {
		t.Fatalf("stats.Steps = %d, want %d", stats.Steps, clients*steps)
	}
	// Retrains are asynchronous: give the pool a moment to drain what the
	// replay queued, then require that swaps actually happened mid-flight.
	swaps := srv.trainers.mSwaps
	deadline := time.Now().Add(10 * time.Second)
	for swaps.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if swaps.Value() == 0 {
		t.Fatal("no background policy swap happened across the whole soak")
	}
	if srv.trainers.mSamples.Value() == 0 {
		t.Fatal("swap counter moved but no samples were accounted")
	}
	if got := srv.trainers.mLag.Count(); got == 0 {
		t.Fatal("train-lag histogram never observed a handoff")
	}
}

// TestAsyncSessionUpdatesVisible pins that a single async session's
// background retrains surface through the same Updates accounting the
// synchronous mode reports (SessionInfo, /metrics aggregation).
func TestAsyncSessionUpdatesVisible(t *testing.T) {
	srv, _, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 1 })
	defer srv.Close()
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
	if err != nil {
		t.Fatal(err)
	}
	p := soc.NewXU3()
	app := workload.MiBench(9)[0]
	cfg := p.Clamp(created.Start)
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; ; i++ {
		sn := app.Snippets[i%len(app.Snippets)]
		res := p.Execute(sn, cfg)
		next, _, err := srv.Step(created.ID, &StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: sn.Threads, EnergyJ: res.Energy,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg = next
		info, err := srv.Info(created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Updates > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async session never published a policy update")
		}
	}
	if _, err := srv.CloseSession(created.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDetachAfterClose: once Close has stopped the trainer pool, a session
// that queues a buffer's worth of samples must not stay scheduled for a
// retrain no worker will run. DetachSession returns, and the queued samples
// leave in the envelope.
func TestDetachAfterClose(t *testing.T) {
	srv, _, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 1 })
	srv.Close()
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.sessions.get(created.ID)
	p := soc.NewXU3()
	app := workload.MiBench(9)[0]
	cfg := p.Clamp(created.Start)
	for i := 0; !sess.trainer.Ready(); i++ {
		if i == 2000 {
			t.Fatal("session never queued a buffer's worth of samples")
		}
		sn := app.Snippets[i%len(app.Snippets)]
		res := p.Execute(sn, cfg)
		if cfg, _, err = srv.Step(created.ID, &StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: sn.Threads, EnergyJ: res.Energy,
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan []byte, 1)
	go func() {
		data, err := srv.DetachSession(created.ID)
		if err != nil {
			t.Error(err)
		}
		done <- data
	}()
	var data []byte
	select {
	case data = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DetachSession still blocked 5 s after Close")
	}
	dst, _, _ := newTestServer(t, nil)
	if _, err := dst.ImportSession(data); err != nil {
		t.Fatal(err)
	}
	oil := dst.sessions.get(created.ID).dec.(*il.OnlineIL)
	if got := oil.Trainer().Buffered(); got < oil.BufferCap {
		t.Fatalf("envelope carries %d queued samples, want at least %d", got, oil.BufferCap)
	}
}

// TestReadyz covers the readiness gate: ready when serving normally, not
// ready before a policy is loaded, not ready when the training queue has
// backed up past its high-water mark.
func TestReadyz(t *testing.T) {
	srv, ts, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 1 })
	defer srv.Close()
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

	// Back up the training queue past half capacity: stop the workers so
	// nothing drains, then fill the admission queue directly.
	srv.trainers.close()
	for 2*len(srv.trainers.queue) < cap(srv.trainers.queue) {
		srv.trainers.queue <- nil
	}
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("backlogged trainer: /readyz = %d, want 503", w.Code)
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
