package serve

import (
	"fmt"
	"strconv"
	"sync"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/il"
	"socrm/internal/soc"
)

// StepTelemetry is one device-side observation posted to the step endpoint:
// the Table I counters of the snippet that just executed, the configuration
// it ran under, and the runnable thread count — exactly what a policy may
// observe at decision time. Time and energy are optional accounting fields
// surfaced on /metrics.
type StepTelemetry struct {
	Counters counters.Snapshot `json:"counters"`
	Config   soc.Config        `json:"config"`
	Threads  int               `json:"threads"`
	TimeS    float64           `json:"time_s,omitempty"`
	EnergyJ  float64           `json:"energy_j,omitempty"`
}

// Session is one governor instance bound to one client/device. All state a
// decision touches — the decider, its adaptation buffers, the previous
// state fed to learning observers — lives behind the session mutex, so any
// number of sessions decide concurrently while each session's step stream
// is serialized.
type Session struct {
	ID     string
	Policy string

	// epoch is the session's fencing token: a monotonic ownership
	// generation, bumped every time the session changes hands (import,
	// promotion, recovery). Two copies of a session can transiently exist
	// during a partition or a racing failover; the higher epoch is the
	// authoritative one and every lower-epoch copy is fenced off (rejected
	// on import, removed on contact with fresher state). Immutable after
	// construction — a copy never changes generation in place. epochHdr is
	// the preformatted response-header value so the step hot path attaches
	// the epoch without a per-request allocation.
	epoch    uint64
	epochHdr []string

	mu       sync.Mutex
	dec      control.Decider
	prev     control.State
	havePrev bool
	steps    uint64
	energyJ  float64
	lastCfg  soc.Config
	closed   bool
	// envLen is the length of the session's last snapshot envelope; the
	// next export pre-sizes its encoder from it.
	envLen int
}

// step runs one decision: telemetry in, next configuration out, mirroring
// the decide-then-observe order of control.RunWithHook so a served online
// learner behaves identically to one driven by the experiment loop. The
// telemetry is passed by pointer so batch callers never copy records.
func (s *Session) step(p *soc.Platform, t *StepTelemetry) (soc.Config, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return soc.Config{}, fmt.Errorf("session %s is closed", s.ID)
	}
	st := control.State{
		Counters: t.Counters,
		Derived:  t.Counters.Derived(),
		Config:   p.Clamp(t.Config),
		Threads:  t.Threads,
	}
	next := p.Clamp(s.dec.Decide(st))
	if ob, isObs := s.dec.(control.Observer); isObs && s.havePrev {
		res := soc.Result{Time: t.TimeS, Energy: t.EnergyJ, Counters: t.Counters}
		ob.Observe(s.prev, st.Config, res, st)
	}
	s.prev, s.havePrev = st, true
	s.steps++
	s.energyJ += t.EnergyJ
	s.lastCfg = next
	return next, nil
}

// Steps returns the session's decided-step count.
func (s *Session) Steps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// setEpoch stamps the ownership generation at construction time, before
// the session is published to the registry.
func (s *Session) setEpoch(e uint64) {
	s.epoch = e
	s.epochHdr = []string{strconv.FormatUint(e, 10)}
}

// SessionInfo is the observable state of a session.
type SessionInfo struct {
	ID      string     `json:"id"`
	Policy  string     `json:"policy"`
	Epoch   uint64     `json:"epoch"`
	Steps   uint64     `json:"steps"`
	EnergyJ float64    `json:"energy_j"`
	Updates int        `json:"updates"`
	LastCfg soc.Config `json:"last_config"`
}

// info snapshots the session under its lock.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := SessionInfo{
		ID:      s.ID,
		Policy:  s.Policy,
		Epoch:   s.epoch,
		Steps:   s.steps,
		EnergyJ: s.energyJ,
		LastCfg: s.lastCfg,
	}
	if oil, isOIL := s.dec.(*il.OnlineIL); isOIL {
		inf.Updates = oil.Updates()
	}
	return inf
}

// close marks the session dead so a concurrent step cannot revive it after
// removal from the registry.
func (s *Session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
