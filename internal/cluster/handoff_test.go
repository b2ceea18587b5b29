package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"socrm/internal/serve"
	"socrm/internal/soc"
)

// TestDrainConvergesOnFresherTarget: a drain whose ring-owner target
// already runs a fresher live copy of the session (a replica it promoted,
// or a racing migration that won) has nothing left to move. The target's
// 409 means the handoff converged there: the session counts as drained and
// the stale local copy is dropped, not re-imported beside the live one.
func TestDrainConvergesOnFresherTarget(t *testing.T) {
	p := soc.NewXU3()
	src := serve.New(serve.Options{Platform: p})
	if _, err := src.CreateSession(serve.CreateRequest{Policy: "ondemand", ID: "c-0"}); err != nil {
		t.Fatal(err)
	}
	target := serve.New(serve.Options{Platform: p})
	env, err := src.ExportSession("c-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.ImportSession(env); err != nil {
		t.Fatal(err)
	}
	tel := telemetry()
	if _, _, err := target.Step("c-0", &tel); err != nil {
		t.Fatal(err)
	}
	targetTS := httptest.NewServer(target.Handler())
	defer targetTS.Close()

	dr := &Drainer{Server: src, Self: "http://self", Peers: []string{targetTS.URL}}
	rep, err := dr.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Drained != 1 || rep.Failed != 0 {
		t.Fatalf("drain = %+v, want the session drained onto its fresher copy", rep)
	}
	if n := src.SessionCount(); n != 0 {
		t.Fatalf("source still holds %d sessions: a stale copy lives beside the fresher one", n)
	}
	info, err := target.Info("c-0")
	if err != nil || info.Steps != 1 {
		t.Fatalf("target copy = %+v, %v; want the fresher copy at step 1", info, err)
	}
}

// TestRebalanceSkipsRefusingBackend: a backend that answers ready but
// refuses every import is offered at most the per-pass refusal limit (3)
// during one rebalance, and every session it refused stays on its source.
func TestRebalanceSkipsRefusingBackend(t *testing.T) {
	var ready atomic.Bool
	var imports atomic.Int32
	refuser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			if !ready.Load() {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ready")
		case "/admin/sessions":
			fmt.Fprint(w, `{"sessions":[]}`)
		case "/v1/sessions/import":
			imports.Add(1)
			http.Error(w, `{"error":"full"}`, http.StatusServiceUnavailable)
		default:
			http.NotFound(w, r)
		}
	}))
	defer refuser.Close()
	src := serve.New(serve.Options{Platform: soc.NewXU3()})
	srcTS := httptest.NewServer(src.Handler())
	defer srcTS.Close()
	rt := NewRouter(RouterOptions{Backends: []string{srcTS.URL, refuser.URL}})
	if !rt.Probe() {
		t.Fatal("initial probe built no ring")
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	const n = 24
	for i := 0; i < n; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "ondemand"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
	}

	ready.Store(true)
	if !rt.Probe() {
		t.Fatal("probe did not add the refusing backend")
	}
	ring := rt.Ring()
	moving := 0
	for _, id := range src.SessionIDs() {
		if ring.Owner(id) == refuser.URL {
			moving++
		}
	}
	if moving <= defaultRefusalLimit {
		t.Fatalf("only %d of %d sessions hash to the new backend; the test needs more than %d",
			moving, n, defaultRefusalLimit)
	}
	if got := imports.Load(); got > defaultRefusalLimit {
		t.Fatalf("refusing backend was offered %d imports in one rebalance, want <= %d", got, defaultRefusalLimit)
	}
	if got := src.SessionCount(); got != n {
		t.Fatalf("source holds %d sessions after the refused rebalance, want %d", got, n)
	}
}
