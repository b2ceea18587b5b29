// Package oracle constructs the Oracle policies of Section IV-A1: for every
// snippet it sweeps the platform's full configuration space (4940 points on
// the XU3 model) and records the configuration optimizing the target
// objective. The Oracle is the supervision source for imitation learning
// and the normalization baseline of Table II and Figures 3-4.
//
// As the paper notes, Oracle construction is far too expensive for runtime
// use — that is precisely why an approximating policy is needed.
package oracle

import (
	"runtime"
	"sync"

	"socrm/internal/soc"
	"socrm/internal/workload"
)

// Objective scores an execution outcome; lower is better.
type Objective func(soc.Result) float64

// Energy minimizes energy consumption (the Table II objective).
func Energy(r soc.Result) float64 { return r.Energy }

// Oracle evaluates optimal configurations on a platform. Labeling an
// application sweeps the whole configuration space for every snippet
// (~4,940 Execute calls each), which is the most expensive deterministic
// step of the reproduction; LabelAppWith spreads it over workers.
type Oracle struct {
	P       *soc.Platform
	Obj     Objective
	configs []soc.Config
}

// New returns an Oracle for the platform and objective.
func New(p *soc.Platform, obj Objective) *Oracle {
	return &Oracle{P: p, Obj: obj, configs: p.Configs()}
}

// Best sweeps the full configuration space for one snippet and returns the
// optimal configuration with its execution result.
func (o *Oracle) Best(s workload.Snippet) (soc.Config, soc.Result) {
	return o.bestOf(s, o.configs)
}

// bestOf sweeps the given candidate set; the first of equal optima wins.
func (o *Oracle) bestOf(s workload.Snippet, candidates []soc.Config) (soc.Config, soc.Result) {
	bestCfg := candidates[0]
	bestRes := o.P.Execute(s, bestCfg)
	bestScore := o.Obj(bestRes)
	for _, c := range candidates[1:] {
		r := o.P.Execute(s, c)
		if sc := o.Obj(r); sc < bestScore {
			bestScore, bestCfg, bestRes = sc, c, r
		}
	}
	return bestCfg, bestRes
}

// Label is the Oracle's answer for one snippet.
type Label struct {
	Cfg soc.Config
	Res soc.Result
}

// LabelApp computes the per-snippet optimal configuration for a whole
// application, parallelized over snippets (each sweep is independent).
func (o *Oracle) LabelApp(app workload.Application) []Label {
	return o.LabelAppWith(app, runtime.GOMAXPROCS(0))
}

// LabelAppWith is LabelApp with an explicit worker count: callers that
// already parallelize across applications (the experiment engine) pass 1
// to keep the pool bounded, and 1 also serves as the serial reference
// path. Labels are stored by snippet index, so the output is identical
// for any worker count. workers <= 0 means GOMAXPROCS.
func (o *Oracle) LabelAppWith(app workload.Application, workers int) []Label {
	labels := make([]Label, len(app.Snippets))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for i, s := range app.Snippets {
			cfg, res := o.Best(s)
			labels[i] = Label{Cfg: cfg, Res: res}
		}
		return labels
	}
	var wg sync.WaitGroup
	ch := make(chan int, len(app.Snippets))
	for i := range app.Snippets {
		ch <- i
	}
	close(ch)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				cfg, res := o.Best(app.Snippets[i])
				labels[i] = Label{Cfg: cfg, Res: res}
			}
		}()
	}
	wg.Wait()
	return labels
}
