package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The router forwards backend calls straight onto its client's Transport
// instead of through http.Client.Do. These tests pin what a caller of the
// router can observe of that hop: deadlines, retries, error text and
// redirects read exactly as they did through Client.Do.

// stubBackend is a ready backend with no sessions whose step route is
// step.
func stubBackend(t *testing.T, step http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("GET /admin/sessions", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"sessions":[]}`)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", step)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// routerOver builds a probed router over backend and serves it.
func routerOver(t *testing.T, backend string, opt RouterOptions) (*Router, *httptest.Server) {
	t.Helper()
	opt.Backends = []string{backend}
	rt := NewRouter(opt)
	if !rt.Probe() {
		t.Fatal("probe found no ready backend")
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

// postStep posts a step through the router without following redirects and
// returns the status, the Content-Type and the body.
func postStep(t *testing.T, front, id string) (int, string, string) {
	t.Helper()
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := hc.Post(front+"/v1/sessions/"+id+"/step", "application/json", bytes.NewReader([]byte(`{"threads":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// checkErrorBody checks that a router error response is JSON whose error
// field reads exactly as Client.Do's error for the same call.
func checkErrorBody(t *testing.T, ctype, body string, want error) {
	t.Helper()
	if ctype != "application/json" {
		t.Fatalf("router error served as %q, want application/json", ctype)
	}
	var got struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("router error body %q does not decode: %v", body, err)
	}
	if got.Error != want.Error() {
		t.Fatalf("router error\n got %q\nwant %q (Client.Do's text)", got.Error, want.Error())
	}
}

// clientDoError is the error http.Client.Do reports for the same call.
func clientDoError(t *testing.T, hc *http.Client, url string) error {
	t.Helper()
	resp, err := hc.Post(url, "application/json", bytes.NewReader([]byte(`{}`)))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("POST %s succeeded; want the failure the router saw", url)
	}
	return err
}

func TestRouterClientTimeoutCapsCallTimeout(t *testing.T) {
	backend := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		// Hung: never answers. Reading the body to its end lets the server
		// notice the caller hanging up, which ends the handler.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	client := &http.Client{Timeout: 100 * time.Millisecond}
	rt, front := routerOver(t, backend.URL, RouterOptions{Client: client, CallTimeout: time.Minute})
	start := time.Now()
	status, ctype, body := postStep(t, front.URL, "s-1")
	// One capped attempt per relocation round, until the 2 s relocation
	// budget runs out — far below the minute-long CallTimeout.
	if elapsed := time.Since(start); elapsed > relocateRetryBudget+5*time.Second {
		t.Fatalf("step to a hung backend took %v; the 100ms client timeout should bound each call", elapsed)
	}
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", status, body)
	}
	checkErrorBody(t, ctype, body, clientDoError(t, client, backend.URL+"/v1/sessions/s-1/step"))
	if routerCounter(rt, "socrouted_proxy_errors_total") == 0 {
		t.Fatal("timed-out calls not counted as proxy errors")
	}
	// The batch path sheds on DeadlineExceeded; the capped timeout must
	// still match it, inside a *url.Error like Client.Do's.
	_, _, _, err := rt.doOnce(context.Background(), http.MethodPost, backend.URL, "/v1/sessions/s-1/step", []byte(`{}`), "application/json")
	var ue *url.Error
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &ue) {
		t.Fatalf("capped timeout error %v (%T): want a *url.Error matching context.DeadlineExceeded", err, err)
	}
}

func TestRouterRefusedConnectionRetries(t *testing.T) {
	backend := stubBackend(t, func(w http.ResponseWriter, _ *http.Request) {})
	client := &http.Client{Timeout: 10 * time.Second}
	rt, front := routerOver(t, backend.URL, RouterOptions{Client: client, RetryBackoff: time.Millisecond})
	backend.Close() // still on the ring; every dial is now refused
	status, ctype, body := postStep(t, front.URL, "s-1")
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", status, body)
	}
	checkErrorBody(t, ctype, body, clientDoError(t, client, backend.URL+"/v1/sessions/s-1/step"))
	if routerCounter(rt, "socrouted_retries_total") == 0 {
		t.Fatal("a refused step was not retried")
	}
}

func TestRouterReturnsBackendRedirect(t *testing.T) {
	var followed atomic.Int64
	var backend *httptest.Server
	backend = stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "moved" {
			followed.Add(1)
			fmt.Fprint(w, `{"config":{}}`)
			return
		}
		http.Redirect(w, r, backend.URL+"/v1/sessions/moved/step", http.StatusTemporaryRedirect)
	})
	_, front := routerOver(t, backend.URL, RouterOptions{})
	status, _, body := postStep(t, front.URL, "s-1")
	if status != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want the backend's 307: %s", status, body)
	}
	if n := followed.Load(); n != 0 {
		t.Fatalf("router followed the backend's redirect %d times", n)
	}
}

// TestRouterRefusesOversizedBodies: a body past the backend's 8 MiB bound
// gets 413 from the router on every route that reads one, and no prefix of
// it reaches a backend.
func TestRouterRefusesOversizedBodies(t *testing.T) {
	var forwarded atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			fmt.Fprintln(w, "ready")
		case "/admin/sessions":
			fmt.Fprint(w, `{"sessions":[]}`)
		default:
			forwarded.Add(1)
			_, _ = io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusTeapot)
		}
	}))
	t.Cleanup(backend.Close)
	_, front := routerOver(t, backend.URL, RouterOptions{})
	// 9 MiB of JSON string, so only the length is wrong.
	body := []byte(`{"policy":"` + strings.Repeat("a", 9<<20) + `"}`)
	for _, path := range []string{"/v1/sessions", "/v1/sessions/s-1/step", "/v1/step/batch"} {
		resp, err := front.Client().Post(front.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes = %d %s, want 413", path, len(body), resp.StatusCode, msg)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("the backend saw %d requests, want none", n)
	}
}
