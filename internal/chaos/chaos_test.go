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
	a, b := New(Options{Seed: 42}), New(Options{Seed: 42})
	for i := 0; i < 200; i++ {
		if a.fire(0.5) != b.fire(0.5) {
			t.Fatalf("schedules diverge at draw %d for identical seeds", i)
		}
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

func TestDisabledInjectorIsInert(t *testing.T) {
	in := New(Options{Seed: 5, Latency: time.Minute, LatencyP: 1, TornP: 1})
	in.SetEnabled(false)
	srv := httptest.NewServer(in.Middleware(okHandler()))
	defer srv.Close()
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK || time.Since(start) >= time.Minute {
		t.Fatalf("disabled injector still faulted: %v %v after %v", err, resp, time.Since(start))
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
