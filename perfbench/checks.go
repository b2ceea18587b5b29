package main

import (
	"fmt"

	"socrm/internal/soc"
)

// The correctness checks every op must pass. A failed check fails the op
// (it counts against ok_ratio) and the run (non-zero exit).

// checkConfig rejects a decided configuration outside the platform's
// knob ranges: a valid decision is its own clamp.
func checkConfig(p *soc.Platform, c soc.Config) error {
	if cl := p.Clamp(c); cl != c {
		return fmt.Errorf("decided config %+v is outside the platform (clamps to %+v)", c, cl)
	}
	return nil
}

// checkSteps rejects a session step count that did not rise by exactly
// the records sent.
func checkSteps(session string, prev, got uint64, sent int) error {
	if got != prev+uint64(sent) {
		return fmt.Errorf("session %s: step count %d after %d + %d records", session, got, prev, sent)
	}
	return nil
}

// checkEnergyRatio rejects a governed-over-Oracle energy ratio below 1:
// the Oracle is the per-snippet minimum over the same soc model, so no
// governor can beat it. The tolerance absorbs summation order only.
func checkEnergyRatio(x float64) error {
	if !(x >= 1-1e-9) {
		return fmt.Errorf("energy_vs_oracle_x = %v, below the Oracle's minimum", x)
	}
	return nil
}

// checkDigest rejects a pipeline pass whose output differs from the first
// pass over the same inputs.
func checkDigest(pass int, first, got string) error {
	if got != first {
		return fmt.Errorf("pass %d output digest %s differs from the first pass's %s", pass, got, first)
	}
	return nil
}
