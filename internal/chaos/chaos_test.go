package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	})
}

func TestDeterministicSchedule(t *testing.T) {
	a, b := New(Options{Seed: 42, ErrorP: 0.5}), New(Options{Seed: 42, ErrorP: 0.5})
	for i := 0; i < 200; i++ {
		if a.fire(0.5) != b.fire(0.5) {
			t.Fatalf("schedules diverge at draw %d for identical seeds", i)
		}
	}
}

func TestMiddlewareErrorAndReset(t *testing.T) {
	in := New(Options{Seed: 7, ErrorP: 0.3, ResetP: 0.3})
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	var ok, errs, resets int
	for i := 0; i < 100; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			resets++
			continue
		}
		if resp.StatusCode == http.StatusInternalServerError {
			errs++
		} else {
			ok++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if ok == 0 || errs == 0 || resets == 0 {
		t.Fatalf("fault mix never exercised all classes: ok=%d errs=%d resets=%d", ok, errs, resets)
	}
	gotErrs, gotResets := in.Errors.Load(), in.Resets.Load()
	if gotErrs == 0 || gotResets == 0 {
		t.Fatalf("counters not incremented: errors=%d resets=%d", gotErrs, gotResets)
	}
}

func TestMiddlewareLatency(t *testing.T) {
	in := New(Options{Seed: 1, Latency: 30 * time.Millisecond, LatencyP: 1})
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency injection skipped: request took %v", d)
	}
}

func TestTransportReset(t *testing.T) {
	in := New(Options{Seed: 3, ResetP: 1})
	c := &http.Client{Transport: in.Transport(nil)}
	if _, err := c.Get("http://127.0.0.1:1/never-dialed"); err == nil {
		t.Fatal("transport with ResetP=1 returned no error")
	}
	if in.Resets.Load() == 0 {
		t.Fatal("reset counter not incremented")
	}
}

func TestDisabledInjectorIsInert(t *testing.T) {
	in := New(Options{Seed: 5, ErrorP: 1, ResetP: 1, TornP: 1})
	in.SetEnabled(false)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled injector still faulted: %v %v", err, resp)
	}
	resp.Body.Close()
	rec := []byte{1, 2, 3, 4, 5, 6}
	if got := in.TornWrites()(rec); len(got) != len(rec) {
		t.Fatalf("disabled injector tore a write: %d of %d bytes", len(got), len(rec))
	}
}

func TestTornWrites(t *testing.T) {
	in := New(Options{Seed: 9, TornP: 1})
	maim := in.TornWrites()
	rec := make([]byte, 64)
	got := maim(rec)
	if len(got) >= len(rec) || len(got) == 0 {
		t.Fatalf("torn write returned %d of %d bytes", len(got), len(rec))
	}
	if in.Torn.Load() != 1 {
		t.Fatalf("torn counter = %d, want 1", in.Torn.Load())
	}
}
