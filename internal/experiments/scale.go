package experiments

import (
	"fmt"
	"runtime"

	"socrm/internal/memo"
	"socrm/internal/oracle"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// The scale sweep is where the memoization layer pays out: it labels a
// configuration lattice and snippet set far beyond the paper's — a finer
// DVFS step multiplies the per-snippet sweep, a snippet factor multiplies
// the trace lengths, and multiple objectives multiply the whole thing.
// At the defaults (25 MHz step = 71,540 configs ≈ 14.5x the paper's 4,940;
// 10x snippets; two objectives) one cold pass is ~300x the paper's
// labeling work — run it once against a -cache-dir and every later run,
// grid cell, or study that overlaps any (platform, app, objective) triple
// returns in microseconds per hit. Cold feasibility is the cache's
// problem to amortize, not the sweep's to avoid.

// ScaleOptions sizes the scale sweep.
type ScaleOptions struct {
	Seed int64
	// SnippetFactor multiplies every application's snippet count (<=1 =
	// paper length). Scaled traces extend the paper's: the first
	// len(paper) snippets are bit-identical.
	SnippetFactor int
	// FreqStepMHz sets the DVFS lattice step (100 = the paper's 4,940
	// configs, 25 = 71,540).
	FreqStepMHz float64
	// MaxSnippets caps the per-app snippet count after scaling (0 = no
	// cap); tests use it to keep the sweep small.
	MaxSnippets int
	// Objectives names the oracle objectives to label under (default:
	// energy and edp).
	Objectives []string
	// Workers bounds the app-labeling pool (0 = GOMAXPROCS).
	Workers int
	// Cache memoizes the labeling; nil recomputes everything.
	Cache *memo.Cache
}

// ScaleObjective summarizes one objective's labeling pass.
type ScaleObjective struct {
	Objective   string
	TotalEnergy float64 // sum of per-snippet optimal energies, joules
	TotalTime   float64 // sum of per-snippet optimal times, seconds
	Digest      string  // content digest of every label, in app order
}

// ScaleResult reports the sweep's extent and per-objective summaries. The
// digests make two runs comparable byte-for-byte: the CI cache smoke and
// the determinism tests both diff them.
type ScaleResult struct {
	Apps     int
	Snippets int // total snippets per objective pass
	Configs  int // lattice size swept per snippet
	Labels   int // total labels produced (snippets x objectives)

	PerObjective []ScaleObjective
}

// ScaleSweep labels the scaled suites over the scaled lattice for every
// requested objective, through the cache when one is attached.
func ScaleSweep(opt ScaleOptions) (ScaleResult, error) {
	if opt.SnippetFactor <= 0 {
		opt.SnippetFactor = 1
	}
	if opt.FreqStepMHz <= 0 {
		opt.FreqStepMHz = 100
	}
	if len(opt.Objectives) == 0 {
		opt.Objectives = []string{oracle.ObjEnergy}
	}
	for _, name := range opt.Objectives {
		if _, ok := oracle.Objectives[name]; !ok {
			return ScaleResult{}, fmt.Errorf("experiments: unknown scale objective %q", name)
		}
	}
	p := soc.NewXU3WithStep(opt.FreqStepMHz)
	apps := truncate(workload.AllAppsScaled(opt.Seed, opt.SnippetFactor), opt.MaxSnippets)
	res := ScaleResult{Apps: len(apps), Configs: p.NumConfigs()}
	for _, a := range apps {
		res.Snippets += len(a.Snippets)
	}
	pool := runtime.GOMAXPROCS(0)
	if opt.Workers > 0 {
		pool = opt.Workers
	}
	innerWorkers := 1
	if len(apps) > 0 {
		innerWorkers = (pool + len(apps) - 1) / len(apps)
	}
	for _, objName := range opt.Objectives {
		orc := oracle.NewNamed(p, objName)
		orc.Memo = opt.Cache
		labeled := MapJobs(pool, apps, func(_ int, app workload.Application) []oracle.Label {
			return orc.LabelAppWith(app, innerWorkers)
		})
		obj := ScaleObjective{Objective: objName}
		h := memo.NewHasher()
		for _, labels := range labeled {
			h.Int(len(labels))
			for i := range labels {
				l := &labels[i]
				h.Int(l.Cfg.LittleFreqIdx)
				h.Int(l.Cfg.BigFreqIdx)
				h.Int(l.Cfg.NLittle)
				h.Int(l.Cfg.NBig)
				h.F64(l.Res.Time)
				h.F64(l.Res.Energy)
				h.F64(l.Res.AvgPower)
				obj.TotalEnergy += l.Res.Energy
				obj.TotalTime += l.Res.Time
			}
			res.Labels += len(labels)
		}
		obj.Digest = h.Sum().Hex()
		res.PerObjective = append(res.PerObjective, obj)
	}
	return res, nil
}
