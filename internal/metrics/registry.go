package metrics

// Registry is the operational-metrics surface of the serving layer: a
// minimal, dependency-free, concurrency-safe collection of counters, gauges
// and latency histograms rendered in the Prometheus text exposition format.
// The reporting half of this package (tables, plots) presents experiment
// outputs; this half instruments the long-running daemon.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// atomicFloat is a float64 updated with CAS loops so hot counters never
// take a lock on the step path.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas are ignored (a counter that
// can decrease is a gauge, and silent decreases corrupt rate() queries).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Meter is a Counter that additionally reports its scrape-to-scrape rate.
// Totals alone hide silent steady-state loss — a drop counter at 40 may be
// forty drops at startup or four drops a second right now — so a meter
// renders both the monotonic total and the per-second rate over the window
// since the previous scrape. The first scrape reports a zero rate.
type Meter struct {
	c Counter

	mu     sync.Mutex
	prev   float64
	prevAt time.Time
}

// Inc adds one.
func (m *Meter) Inc() { m.c.Inc() }

// Value returns the monotonic total.
func (m *Meter) Value() float64 { return m.c.Value() }

// rate returns the per-second rate since the previous call and advances the
// window. Concurrent scrapers shorten each other's windows, which only makes
// the rate fresher.
func (m *Meter) rate() float64 {
	total := m.c.Value()
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prevAt.IsZero() {
		m.prev, m.prevAt = total, now
		return 0
	}
	dt := now.Sub(m.prevAt).Seconds()
	if dt <= 0 {
		return 0
	}
	r := (total - m.prev) / dt
	m.prev, m.prevAt = total, now
	if r < 0 {
		return 0
	}
	return r
}

// histBuckets are exponential latency bucket upper bounds: 1 µs doubling up
// to ~67 s, plus an implicit +Inf overflow bucket. Decision latencies of
// every policy in the repo land well inside this range.
const (
	histFirstBound = 1e-6
	histNumBounds  = 27
)

// Histogram accumulates observations into fixed exponential buckets and
// reports approximate quantiles (upper-bound linear interpolation within
// the winning bucket). Observations are lock-free.
type Histogram struct {
	counts [histNumBounds + 1]atomic.Uint64
	sum    atomicFloat
	n      atomic.Uint64
}

// histBounds is precomputed: Observe sits on the daemon's step path.
var histBounds = func() [histNumBounds]float64 {
	var b [histNumBounds]float64
	v := histFirstBound
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

func histBound(i int) float64 { return histBounds[i] }

// Observe records one sample (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	i := 0
	for i < histNumBounds && v > histBound(i) {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile returns the approximate q-quantile (0 < q < 1) of the recorded
// distribution, or 0 with no observations. Concurrent observers make the
// answer approximate, which is fine for operational monitoring.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i <= histNumBounds; i++ {
		c := h.counts[i].Load()
		if cum+c >= rank {
			hi := histBound(i)
			lo := 0.0
			if i > 0 {
				lo = histBound(i - 1)
			}
			if i == histNumBounds { // overflow bucket: no upper bound
				return lo
			}
			if c == 0 {
				return hi
			}
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return histBound(histNumBounds - 1)
}

// Registry names and renders a set of metrics.
type Registry struct {
	mu    sync.Mutex
	items map[string]registered
}

type registered struct {
	help string
	kind string // "counter", "gauge", "summary", "meter"
	c    *Counter
	g    *Gauge
	h    *Histogram
	m    *Meter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]registered{}}
}

func (r *Registry) register(name, help, kind string, item registered) registered {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, okReg := r.items[name]; okReg {
		if got.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %s, was %s", name, kind, got.kind))
		}
		return got
	}
	item.help, item.kind = help, kind
	r.items[name] = item
	return item
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", registered{c: &Counter{}}).c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", registered{g: &Gauge{}}).g
}

// Histogram returns the named latency histogram, registering it on first
// use. It renders as a Prometheus summary with p50/p90/p99 quantiles.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, "summary", registered{h: &Histogram{}}).h
}

// Meter returns the named meter, registering it on first use. It renders as
// the counter `name` plus a companion gauge `<name minus _total>_rate_per_s`
// carrying the per-second rate over the window since the previous scrape.
func (r *Registry) Meter(name, help string) *Meter {
	return r.register(name, help, "meter", registered{m: &Meter{}}).m
}

// WriteProm renders every metric in the Prometheus text exposition format,
// sorted by name. A name may carry labels ("family{k=\"v\"}"); HELP and
// TYPE then name the bare family, once for all its samples, which sort
// together because each begins with the family name and "{".
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.items))
	items := make(map[string]registered, len(r.items))
	for k, v := range r.items {
		names = append(names, k)
		items[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	prevFamily := ""
	for _, name := range names {
		it := items[name]
		kind := it.kind
		if kind == "meter" {
			kind = "counter"
		}
		family, _, _ := strings.Cut(name, "{")
		if family != prevFamily {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, it.help, family, kind)
			prevFamily = family
		}
		switch it.kind {
		case "counter":
			fmt.Fprintf(w, "%s %g\n", name, it.c.Value())
		case "meter":
			fmt.Fprintf(w, "%s %g\n", name, it.m.Value())
			rateName := strings.TrimSuffix(name, "_total") + "_rate_per_s"
			fmt.Fprintf(w, "# HELP %s Per-second rate of %s since the previous scrape.\n# TYPE %s gauge\n",
				rateName, name, rateName)
			fmt.Fprintf(w, "%s %g\n", rateName, it.m.rate())
		case "gauge":
			fmt.Fprintf(w, "%s %g\n", name, it.g.Value())
		case "summary":
			for _, q := range []float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), it.h.Quantile(q))
			}
			fmt.Fprintf(w, "%s_sum %g\n", name, it.h.Sum())
			fmt.Fprintf(w, "%s_count %d\n", name, it.h.Count())
		}
	}
}
