// Package chaos injects deterministic faults into socrm's HTTP and
// checkpoint paths so failure handling can be tested (and soak-tested
// under -race) without real crashes.
//
// All randomness flows from one seeded source, so a given seed produces
// the same fault schedule on every run — a failing chaos test reproduces
// with its seed. Faults are sampled independently per call site:
//
//   - Middleware: wraps an http.Handler; injects extra latency before the
//     real handler runs.
//   - Transport: wraps an http.RoundTripper; injects latency on the client
//     side, and fails every call to a host that SetPartition blackholed.
//   - TornWrites: a ckpt.Options.MaimWrites hook that truncates a
//     fraction of checkpoint records mid-record, simulating a crash
//     during a write.
//
// An Injector with a zero Options is inert; every wrapper passes
// through untouched.
package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options selects fault probabilities. All probabilities are in [0, 1];
// zero disables that fault class.
type Options struct {
	Seed int64 // deterministic schedule seed (0 = seed 1)

	Latency  time.Duration // extra delay injected when LatencyP fires
	LatencyP float64       // probability of injecting Latency per request

	TornP float64 // probability of tearing a checkpoint record write
}

// Injector is a seeded fault source. Safe for concurrent use.
type Injector struct {
	opt Options

	mu  sync.Mutex
	rng *rand.Rand

	enabled atomic.Bool

	// blackholes holds destination hosts this side cannot reach (an
	// asymmetric partition: only transports wrapped by THIS injector lose
	// the host; the reverse direction is a separate injector's blackhole).
	blackholes atomic.Pointer[map[string]bool]

	// Torn counts torn checkpoint writes, exposed for tests.
	Torn atomic.Uint64
}

// New builds an Injector. Faults start enabled.
func New(opt Options) *Injector {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	in := &Injector{opt: opt, rng: rand.New(rand.NewSource(seed))}
	in.enabled.Store(true)
	return in
}

// SetEnabled toggles all fault injection at runtime; disabled injectors
// pass everything through (soak tests use this to end the storm phase).
// Partitions are independent of this switch — they model the network, not
// the fault schedule — and are cleared with SetPartition().
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// SetPartition blackholes the given destination hosts ("host:port", as they
// appear in request URLs) for every Transport wrapped by this injector:
// calls to them fail like dropped packets (an opaque transport error, not a
// refusal — the caller cannot tell a partition from a dead host). Because
// the block binds to this side's client transport only, partitioning A→B
// while leaving B→A intact builds the asymmetric split that exercises
// epoch fencing. Call with no arguments to heal.
func (in *Injector) SetPartition(hosts ...string) {
	if len(hosts) == 0 {
		in.blackholes.Store(nil)
		return
	}
	m := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		m[h] = true
	}
	in.blackholes.Store(&m)
}

// partitioned reports whether host is currently blackholed.
func (in *Injector) partitioned(host string) bool {
	m := in.blackholes.Load()
	return m != nil && (*m)[host]
}

// roll samples one uniform float from the shared schedule.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v
}

func (in *Injector) fire(p float64) bool {
	if p <= 0 || !in.enabled.Load() {
		return false
	}
	return in.roll() < p
}

// Middleware wraps h with server-side fault injection.
func (in *Injector) Middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.fire(in.opt.LatencyP) {
			select {
			case <-time.After(in.opt.Latency):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// Transport wraps rt with client-side fault injection. A nil rt wraps
// http.DefaultTransport.
func (in *Injector) Transport(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &transport{in: in, next: rt}
}

type transport struct {
	in   *Injector
	next http.RoundTripper
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	in := t.in
	if in.partitioned(r.URL.Host) {
		// A real partition drops packets silently; surface it as an opaque
		// transport error (NOT a connection refusal, which callers may treat
		// as provably-not-delivered and retry aggressively).
		return nil, fmt.Errorf("chaos: partitioned from %s", r.URL.Host)
	}
	if in.fire(in.opt.LatencyP) {
		select {
		case <-time.After(in.opt.Latency):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return t.next.RoundTrip(r)
}

// TornWrites returns a ckpt.Options.MaimWrites hook that truncates a
// TornP fraction of records at a schedule-chosen offset. The store's
// replay discards the torn record and keeps every intact one, so the
// only observable effect is a slightly staler checkpoint.
func (in *Injector) TornWrites() func(record []byte) []byte {
	return func(record []byte) []byte {
		if !in.fire(in.opt.TornP) || len(record) < 2 {
			return record
		}
		in.Torn.Add(1)
		in.mu.Lock()
		cut := 1 + in.rng.Intn(len(record)-1)
		in.mu.Unlock()
		return record[:cut]
	}
}
