package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test")
	g := r.Gauge("test_active", "test")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %v, want 0", g.Value())
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %v, want 5 (negative add ignored)", c.Value())
	}
}

func TestRegistryIdempotentAndKindSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second registration returns the same counter")
	if a != b {
		t.Fatal("re-registration must return the existing metric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "kind clash")
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples spread over 1ms..100ms; the quantiles must land inside
	// the observed range and be ordered.
	for i := 0; i < 1000; i++ {
		h.Observe(0.001 + 0.099*float64(i)/999)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 > 0.001 && p50 < 0.1) {
		t.Fatalf("p50 = %v out of observed range", p50)
	}
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not ordered: %v %v %v", p50, p90, p99)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("sum = %v, want > 0", h.Sum())
	}
}

func TestHistogramEmptyAndConcurrent(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_steps_total", "Steps.").Add(3)
	r.Gauge("app_sessions", "Sessions.").Set(2)
	h := r.Histogram("app_latency_seconds", "Latency.")
	h.Observe(0.004)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE app_steps_total counter",
		"app_steps_total 3",
		"# TYPE app_sessions gauge",
		"app_sessions 2",
		"# TYPE app_latency_seconds summary",
		`app_latency_seconds{quantile="0.99"}`,
		"app_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromLabeledFamily(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`app_backend_sessions{backend="a"}`, "Sessions per backend.").Set(1)
	r.Gauge(`app_backend_sessions{backend="b"}`, "Sessions per backend.").Set(2)
	r.Gauge("app_backend_sessions_max", "Most sessions on one backend.").Set(2)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	want := `# HELP app_backend_sessions Sessions per backend.
# TYPE app_backend_sessions gauge
app_backend_sessions{backend="a"} 1
app_backend_sessions{backend="b"} 2
`
	if !strings.Contains(out, want) {
		t.Fatalf("labeled family not rendered as one group under its bare name:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(line, "{") {
			t.Fatalf("HELP/TYPE line names a labeled sample: %q", line)
		}
	}
}
