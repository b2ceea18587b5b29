// Package experiments reproduces every table and figure of the paper's
// evaluation on the simulated substrates: Figure 2 (online frame-time
// modeling), Table II (offline-IL generalization gap), Figures 3-4
// (online-IL vs RL convergence and energy), and Figure 5 (explicit NMPC
// energy savings). cmd/socrepro, the benchmarks in bench_test.go and the
// integration tests all drive this package.
package experiments

import (
	"fmt"
	"runtime"

	"socrm/internal/control"
	"socrm/internal/il"
	"socrm/internal/oracle"
	"socrm/internal/rl"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// Options sizes a study. The defaults reproduce the paper-scale runs; tests
// shrink MaxSnippets to keep runtimes low.
type Options struct {
	Seed        int64
	MaxSnippets int // per-app snippet cap, 0 = full length
	// Workers bounds the experiment engine's worker pool: 0 means
	// GOMAXPROCS, 1 is a fully serial reference path. Outputs are identical for
	// any value — only wall-time changes.
	Workers int
}

// workers returns the study's worker-pool bound (0 = GOMAXPROCS).
func (s *Study) workers() int { return s.Opt.Workers }

// Study holds the shared expensive assets of the CPU-side experiments:
// the platform, the Oracle labels of all sixteen applications, and the
// offline-trained IL policy.
type Study struct {
	Opt     Options
	P       *soc.Platform
	Orc     *oracle.Oracle
	MiBench []workload.Application
	Cortex  []workload.Application
	Parsec  []workload.Application

	labels     map[string][]oracle.Label
	dataset    il.Dataset
	policy     *il.MLPPolicy
	treePolicy *il.TreePolicy
}

// NewStudy builds the study: generates the suites, computes Oracle labels
// for every application, and trains the offline IL policy on the
// Mi-Bench-like suite only (the paper's design-time setup).
func NewStudy(opt Options) (*Study, error) {
	s := &Study{
		Opt:     opt,
		P:       soc.NewXU3(),
		MiBench: truncate(workload.MiBench(opt.Seed), opt.MaxSnippets),
		Cortex:  truncate(workload.Cortex(opt.Seed), opt.MaxSnippets),
		Parsec:  truncate(workload.Parsec(opt.Seed), opt.MaxSnippets),
		labels:  map[string][]oracle.Label{},
	}
	s.Orc = oracle.New(s.P, oracle.Energy)
	// Oracle labeling is the expensive step (a full configuration-space
	// sweep per snippet) and every application is independent, so it runs
	// on the worker pool: one job per app. On machines with more cores
	// than apps the app-level fan-out alone would strand cores, so each
	// app job also gets the pool's spare capacity for its per-snippet
	// sweeps, keeping total concurrency ~= the pool bound. Labels land by
	// app name and snippet index, so neither level affects the result.
	apps := s.allApps()
	pool := runtime.GOMAXPROCS(0)
	if s.workers() > 0 {
		pool = s.workers()
	}
	innerWorkers := 1
	if len(apps) > 0 {
		innerWorkers = (pool + len(apps) - 1) / len(apps)
	}
	labeled := MapJobs(pool, apps, func(_ int, app workload.Application) []oracle.Label {
		return s.Orc.LabelAppWith(app, innerWorkers)
	})
	for i, app := range apps {
		s.labels[app.Name] = labeled[i]
	}
	for _, app := range s.MiBench {
		il.AppendDataset(&s.dataset, s.P, app, s.labels[app.Name])
	}
	pol, tree, err := s.trainPolicies()
	if err != nil {
		return nil, err
	}
	s.policy = pol
	s.treePolicy = tree
	return s, nil
}

// trainPolicies fits the offline MLP and tree policies from the study's
// dataset.
func (s *Study) trainPolicies() (*il.MLPPolicy, *il.TreePolicy, error) {
	pol, err := il.TrainMLPPolicy(s.P, s.dataset)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: offline policy training: %w", err)
	}
	tree, err := il.TrainTreePolicy(s.P, s.dataset)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: offline tree policy training: %w", err)
	}
	return pol, tree, nil
}

// OfflineTreePolicy returns the frozen regression-tree policy of refs
// [18][19] — the Table II configuration.
func (s *Study) OfflineTreePolicy() *il.TreePolicy { return s.treePolicy }

func truncate(apps []workload.Application, n int) []workload.Application {
	if n <= 0 {
		return apps
	}
	out := make([]workload.Application, len(apps))
	for i, a := range apps {
		out[i] = a
		if len(a.Snippets) > n {
			out[i].Snippets = a.Snippets[:n]
		}
	}
	return out
}

func (s *Study) allApps() []workload.Application {
	var out []workload.Application
	out = append(out, s.MiBench...)
	out = append(out, s.Cortex...)
	out = append(out, s.Parsec...)
	return out
}

// Labels returns the Oracle labels of an application. It panics on a name
// the study never labeled: a silent empty slice here turns a typo (or a
// stale cache key) into an empty figure with zero-valued normalizers, which
// is far harder to notice than a crash naming the missing app.
func (s *Study) Labels(name string) []oracle.Label {
	l, ok := s.labels[name]
	if !ok {
		panic(fmt.Sprintf("experiments: no oracle labels for application %q (study labeled %d apps)", name, len(s.labels)))
	}
	return l
}

// OracleEnergy returns the Oracle's total energy for an application — the
// normalizer of Table II and Figure 4. Panics on an unknown name, like
// Labels.
func (s *Study) OracleEnergy(name string) float64 {
	total := 0.0
	for _, l := range s.Labels(name) {
		total += l.Res.Energy
	}
	return total
}

// OfflinePolicy returns the frozen Mi-Bench-trained policy.
func (s *Study) OfflinePolicy() *il.MLPPolicy { return s.policy }

// FreshModels returns warm-started online models, reproducing the paper's
// offline model construction before each deployment: the design-time
// applications plus the platform-characterization sweep (which identifies
// the memory-wall and branch-penalty slopes that compute-bound suites
// cannot excite).
func (s *Study) FreshModels() *il.OnlineModels {
	m := il.NewOnlineModels(s.P)
	apps := append(append([]workload.Application{}, s.MiBench...), workload.Calibration())
	m.WarmStart(apps, il.WarmStartConfigs(s.P))
	return m
}

// FreshOnlineIL returns an online-IL controller bootstrapped from the
// offline policy and warm models, using the historical default training
// seed (il.DefaultSeed) so experiment outputs stay bit-identical.
func (s *Study) FreshOnlineIL() *il.OnlineIL {
	return s.FreshOnlineILSeeded(il.DefaultSeed)
}

// FreshOnlineILSeeded is FreshOnlineIL with an explicit training seed.
// Hosts running several learners in one process (serving daemons, parallel
// ablations) must decorrelate them by seeding each one differently.
func (s *Study) FreshOnlineILSeeded(seed int64) *il.OnlineIL {
	return il.NewOnlineILSeeded(s.P, s.policy.Clone(), s.FreshModels(), seed)
}

// FreshQTable returns the table-based Q-learning baseline pretrained on the
// Mi-Bench suite. The Figure 3/4 comparison uses this learner, and it
// fails to converge, which is the paper's point.
func (s *Study) FreshQTable(pretrainPasses int) *rl.QTable {
	q := rl.NewQTable(s.P, s.Opt.Seed+23)
	seq := workload.NewSequence(s.MiBench...)
	start := s.defaultStart()
	for e := 0; e < pretrainPasses; e++ {
		// Decaying exploration schedule over the design-time episodes.
		q.Epsilon = 0.4 / float64(e+1)
		control.Run(s.P, seq, q, start)
	}
	q.Epsilon = 0.05
	return q
}

// defaultStart is the neutral boot configuration all runs start from.
func (s *Study) defaultStart() soc.Config {
	return soc.Config{
		LittleFreqIdx: len(s.P.LittleOPPs) / 2,
		BigFreqIdx:    len(s.P.BigOPPs) / 2,
		NLittle:       4,
		NBig:          2,
	}
}

// knobAgreement is the Figure 3 accuracy criterion: the fraction of the
// four control knobs on which the policy matches the Oracle — frequencies
// within one OPP (100 MHz), core counts exactly. A policy that has truly
// converged scores 1.0; one stuck in the wrong operating regime hovers
// around the fraction of knobs it gets right by coincidence.
func knobAgreement(pol, orc soc.Config) float64 {
	score := 0.0
	near := func(a, b int) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1
	}
	if near(pol.BigFreqIdx, orc.BigFreqIdx) {
		score++
	}
	if near(pol.LittleFreqIdx, orc.LittleFreqIdx) {
		score++
	}
	if pol.NLittle == orc.NLittle {
		score++
	}
	if pol.NBig == orc.NBig {
		score++
	}
	return score / 4
}
