package serve

import (
	"fmt"
	"io"

	"socrm/internal/il"
	"socrm/internal/oracle"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// TrainBootstrapPolicy trains a reduced-scale offline MLP policy (apps
// Mi-Bench applications truncated to snippets each, Oracle-labeled) so a
// daemon can come up on a machine that has no persisted policy yet. It is
// deliberately smaller than the paper-scale Study training: boot time over
// fidelity for the zero-to-serving path.
func TrainBootstrapPolicy(p *soc.Platform, seed int64, apps, snippets int) (*il.MLPPolicy, error) {
	if apps <= 0 || snippets <= 1 {
		return nil, fmt.Errorf("serve: bootstrap needs >=1 apps and >=2 snippets, got %d/%d", apps, snippets)
	}
	suite := workload.MiBench(seed)
	if apps < len(suite) {
		suite = suite[:apps]
	}
	for i := range suite {
		if len(suite[i].Snippets) > snippets {
			suite[i].Snippets = suite[i].Snippets[:snippets]
		}
	}
	orc := oracle.New(p, oracle.Energy)
	ds := il.BuildDataset(p, orc, suite)
	return il.TrainMLPPolicy(p, ds)
}

// WriteBootstrapPolicy trains and serializes a bootstrap policy in one
// step, for the daemon's -bootstrap flag and for tests that need a valid
// policy file on disk.
func WriteBootstrapPolicy(w io.Writer, p *soc.Platform, seed int64, apps, snippets int) error {
	pol, err := TrainBootstrapPolicy(p, seed, apps, snippets)
	if err != nil {
		return err
	}
	return il.SaveMLPPolicy(w, pol)
}

// WarmModels builds the warm-started online-model template sessions clone
// from: the design-time Mi-Bench suite (truncated for boot speed) plus the
// platform-characterization sweep that excites the memory-wall features.
func WarmModels(p *soc.Platform, seed int64, maxSnippets int) *il.OnlineModels {
	apps := workload.MiBench(seed)
	if maxSnippets > 0 {
		for i := range apps {
			if len(apps[i].Snippets) > maxSnippets {
				apps[i].Snippets = apps[i].Snippets[:maxSnippets]
			}
		}
	}
	apps = append(apps, workload.Calibration())
	m := il.NewOnlineModels(p)
	m.WarmStart(apps, il.WarmStartConfigs(p))
	return m
}
