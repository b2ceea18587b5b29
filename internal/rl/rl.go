// Package rl implements the reinforcement-learning baseline of Section
// IV-A2, a table-based Q-learner. The
// paper's argument — and what Figures 3-4 show — is that reward-driven
// trial-and-error needs far more samples than model-guided imitation
// learning, so RL fails to converge within a realistic application
// sequence.
package rl

import (
	"socrm/internal/soc"
)

// Action is one incremental knob move; RL policies act on deltas because
// the raw 4940-point configuration space is intractable for a Q-table.
type Action int

// The nine incremental actions.
const (
	Stay Action = iota
	BigFreqUp
	BigFreqDown
	LittleFreqUp
	LittleFreqDown
	BigCoreUp
	BigCoreDown
	LittleCoreUp
	LittleCoreDown
	NumActions
)

// Apply returns the configuration after taking the action.
func (a Action) Apply(p *soc.Platform, c soc.Config) soc.Config {
	switch a {
	case BigFreqUp:
		c.BigFreqIdx++
	case BigFreqDown:
		c.BigFreqIdx--
	case LittleFreqUp:
		c.LittleFreqIdx++
	case LittleFreqDown:
		c.LittleFreqIdx--
	case BigCoreUp:
		c.NBig++
	case BigCoreDown:
		c.NBig--
	case LittleCoreUp:
		c.NLittle++
	case LittleCoreDown:
		c.NLittle--
	}
	return p.Clamp(c)
}

// RewardScaleJ normalizes snippet energy into a unit-ish reward magnitude.
const RewardScaleJ = 0.1

// Reward is the negative normalized energy of the executed snippet. The
// paper's point that "designing a good reward function is not trivial"
// stands: this obvious choice gives no credit assignment for the
// performance lost at low frequency beyond its energy effect.
func Reward(r soc.Result) float64 { return -r.Energy / RewardScaleJ }
