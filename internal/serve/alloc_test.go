//go:build !race

// Allocation-regression guards for the serving hot path, mirroring the
// alloc_test.go pattern of il/mlp/rls: testing.AllocsPerRun pins the
// direct-call step path at zero allocations and the JSON step path at a
// small constant. The race runtime instruments allocation, so these only
// bite in a plain build (CI runs them in the bench-smoke job).

package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"socrm/internal/soc"
	"socrm/internal/workload"
)

// stepFixture builds a server, one offline-il session and one telemetry
// record for the hot-path alloc probes.
func stepFixture(t *testing.T) (*Server, string, StepTelemetry) {
	t.Helper()
	srv, _, _ := newTestServer(t, nil)
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	p := soc.NewXU3()
	app := workload.MiBench(8)[0]
	cfg := p.Clamp(created.Start)
	res := p.Execute(app.Snippets[0], cfg)
	return srv, created.ID, StepTelemetry{
		Counters: res.Counters, Config: cfg, Threads: 1,
		TimeS: res.Time, EnergyJ: res.Energy,
	}
}

func TestDirectStepAllocFree(t *testing.T) {
	srv, id, tel := stepFixture(t)
	// Warm once so lazily sized scratch (decider features) exists.
	if _, _, err := srv.Step(id, &tel); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if _, _, err := srv.Step(id, &tel); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("direct Step allocates %.1f objects per call, want 0", avg)
	}
}

// sinkWriter and replayBody mirror the root benchmark's fixtures: sink the
// response without per-request buffers and re-arm one body without a
// per-step NopCloser, so the probe measures the handler's own allocations.
type sinkWriter struct{ h http.Header }

func (d *sinkWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *sinkWriter) WriteHeader(int)             {}

type replayBody struct{ r bytes.Reader }

func (rb *replayBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *replayBody) Close() error               { return nil }

// TestHTTPStepAllocFree pins the JSON single-step endpoint (ISSUE 5
// satellite: the path sat at 13 allocs/op after PR 4). The persistent
// per-scratch decoder/encoder hold it at ~1; the budget leaves slack for
// runtime-internal drift but must never climb back toward double digits.
func TestHTTPStepAllocFree(t *testing.T) {
	srv, id, tel := stepFixture(t)
	h := srv.Handler()
	body, err := json.Marshal(StepRequest{StepTelemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/step", nil)
	rb := &replayBody{}
	w := &sinkWriter{}
	if avg := testing.AllocsPerRun(500, func() {
		rb.r.Reset(body)
		req.Body = rb
		h.ServeHTTP(w, req)
	}); avg > 4 {
		t.Fatalf("HTTP step allocates %.1f objects per request, want <= 4", avg)
	}
}

// TestHTTPBatchAllocFree pins the JSON fleet-tick endpoint (ISSUE 6
// satellite: the path sat at ~25 allocs/request after PR 5, one string per
// entry session id plus json.Unmarshal overhead). SessionRef decodes ids
// as aliases of the decoder buffer and results carry interned ids plus
// enum status codes, so a multi-entry tick must stay allocation-free with
// the same small slack as the single-step path.
func TestHTTPBatchAllocFree(t *testing.T) {
	srv, id, tel := stepFixture(t)
	h := srv.Handler()
	var breq BatchRequest
	for i := 0; i < 4; i++ {
		breq.Entries = append(breq.Entries, BatchEntry{
			Session: SessionRef(id),
			Steps:   []StepTelemetry{tel, tel, tel, tel},
		})
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/step/batch", nil)
	rb := &replayBody{}
	w := &sinkWriter{}
	if avg := testing.AllocsPerRun(500, func() {
		rb.r.Reset(body)
		req.Body = rb
		h.ServeHTTP(w, req)
	}); avg > 4 {
		t.Fatalf("HTTP batch step allocates %.1f objects per request, want <= 4", avg)
	}
}

func TestDirectStepBatchAllocFree(t *testing.T) {
	srv, id, tel := stepFixture(t)
	entries := []BatchEntry{{Session: SessionRef(id), Steps: []StepTelemetry{tel, tel, tel, tel}}}
	var results []BatchResult
	results = srv.StepBatch(entries, results[:0])
	if results[0].Error != "" {
		t.Fatal(results[0].Error)
	}
	if avg := testing.AllocsPerRun(500, func() {
		results = srv.StepBatch(entries, results[:0])
	}); avg != 0 {
		t.Fatalf("direct StepBatch allocates %.1f objects per call, want 0", avg)
	}
}

// TestFastPathAllocFree pins the step body decode (StepDecoder, the
// handler's own) at zero allocations for a json.Marshal'd body.
func TestFastPathAllocFree(t *testing.T) {
	body := mustMarshal(t, randomStepRequest(rand.New(rand.NewSource(3))))
	var dec StepDecoder
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.ContentLength = int64(len(body))
	rb := &replayBody{}
	decode := func() {
		rb.r.Reset(body)
		r.Body = rb
		if _, err := dec.Decode(r); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if avg := testing.AllocsPerRun(200, decode); avg != 0 {
		t.Fatalf("fast-path decode allocates %.1f objects per body, want 0", avg)
	}
}
