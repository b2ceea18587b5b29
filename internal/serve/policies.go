// Package serve is the governor-as-a-service layer: a long-running HTTP
// daemon (cmd/socserved) that loads persisted policies, manages many
// concurrent governor sessions — one per device/client, each owning its own
// decider and adaptation state — and exposes decision, admin and metrics
// endpoints. It is the first part of the codebase designed to run
// indefinitely under concurrent traffic rather than replay canned
// experiment loops.
package serve

import (
	"fmt"
	"os"
	"sync"

	"socrm/internal/il"
	"socrm/internal/soc"
)

// PolicyStore owns the persisted policy file the daemon serves from and
// supports hot reload: Load re-reads the file atomically, new sessions bind
// to the newest generation, and existing sessions keep the policy they were
// created with (a running learner must never have its network swapped
// mid-training).
type PolicyStore struct {
	path string
	p    *soc.Platform

	mu  sync.RWMutex
	mlp *il.MLPPolicy
	gen int64
}

// NewPolicyStore returns a store reading from path; call Load before use.
func NewPolicyStore(path string, p *soc.Platform) *PolicyStore {
	return &PolicyStore{path: path, p: p}
}

// Load (re-)reads the policy file. On any error the previously loaded
// policy stays active — a broken file pushed to disk must never take down
// a serving daemon.
func (ps *PolicyStore) Load() error {
	f, err := os.Open(ps.path)
	if err != nil {
		return fmt.Errorf("serve: opening policy file: %w", err)
	}
	defer f.Close()
	pol, err := il.LoadPolicy(f, ps.p)
	if err != nil {
		return fmt.Errorf("serve: loading %s: %w", ps.path, err)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.mlp = pol
	ps.gen++
	return nil
}

// Generation returns how many successful loads have happened; it increments
// on every hot reload, so tests and monitoring can confirm a reload took.
func (ps *PolicyStore) Generation() int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.gen
}

// MLP returns the currently loaded neural policy, or an error if no file
// has loaded.
func (ps *PolicyStore) MLP() (*il.MLPPolicy, error) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if ps.mlp == nil {
		return nil, fmt.Errorf("serve: no MLP policy loaded from %s", ps.path)
	}
	return ps.mlp, nil
}
