package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"socrm/internal/experiments"
	"socrm/internal/oracle"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// reproSnippets caps every application's trace in a pipeline pass: a
// pass then takes a few hundred milliseconds.
const reproSnippets = 20

// reproStages names the pipeline stages of one pass, in order.
var reproStages = []string{"experiments.new_study", "experiments.table2", "experiments.fig4", "experiments.fig5", "experiments.fig2"}

// passOut is what one pipeline pass produced.
type passOut struct {
	digest  string
	energyX float64 // Figure 4 online-IL energy over the Oracle's, mean over apps
	gpuSave float64 // Figure 5 mean GPU energy saving of explicit NMPC, %
	study   *experiments.Study
}

// reproPass runs the paper pipeline once, serially and without the
// experiment cache: NewStudy (Oracle labelling and offline training),
// Table II, Figure 4, Figure 5, Figure 2.
func reproPass(seed int64, rec *recorder, op int64) (passOut, error) {
	var out passOut
	h := sha256.New()
	stage := func(i int, fn func() error) error {
		t0 := rec.now()
		err := fn()
		rec.add(reproStages[i], "", op, t0, rec.now())
		return err
	}
	t0 := rec.now()
	err := stage(0, func() (err error) {
		out.study, err = experiments.NewStudy(experiments.Options{Seed: seed, MaxSnippets: reproSnippets, Workers: 1})
		return err
	})
	if err != nil {
		return out, err
	}
	s := out.study
	_ = stage(1, func() error { fmt.Fprintf(h, "table2 %+v\n", s.Table2()); return nil })
	_ = stage(2, func() error {
		rows := s.Fig4()
		fmt.Fprintf(h, "fig4 %+v\n", rows)
		for _, r := range rows {
			out.energyX += r.IL
		}
		out.energyX /= float64(len(rows))
		return nil
	})
	err = stage(3, func() error {
		opt := experiments.DefaultFig5Options()
		opt.Seed, opt.Workers = seed, 1
		f5, err := experiments.Fig5(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "fig5 %+v %+v %v\n", f5.Rows, f5.Average, f5.PerfOverhead)
		out.gpuSave = 100 * f5.Average.GPUSavings
		return nil
	})
	if err != nil {
		return out, err
	}
	_ = stage(4, func() error {
		f2 := experiments.Fig2(seed)
		fmt.Fprintf(h, "fig2 %v %v\n", f2.MAPE, f2.WAPE)
		return nil
	})
	rec.add("repro.pass", "", op, t0, rec.now())
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return out, nil
}

// pipelinePasses is how many timed passes the traced run makes, after
// one untimed pass that warms the heap and gives the reference digest.
const pipelinePasses = 3

// pipelineLayers runs the paper pipeline pipelinePasses+1 times with spans
// around its stages and returns the per-layer metrics of those stages and
// the spans. Every pass must reproduce the first pass's digest and keep
// the Figure 4 online-IL energy at or above the Oracle's.
func pipelineLayers(seed int64) (map[string]float64, []span, error) {
	rec := newRecorder()
	first, err := reproPass(seed, rec, 0)
	if err != nil {
		return nil, nil, err
	}
	rec.on.Store(true)
	for op := int64(1); op <= pipelinePasses; op++ {
		out, err := reproPass(seed, rec, op)
		if err == nil {
			err = checkDigest(int(op), first.digest, out.digest)
		}
		if err == nil {
			err = checkEnergyRatio(out.energyX)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline pass: %w", err)
		}
	}
	rec.on.Store(false)
	spans := rec.snapshot()
	l := map[string]float64{
		"nmpc.gpu_save_pct":          first.gpuSave,
		"experiments.fig4_il_x":      first.energyX,
		"experiments.il_state_bytes": governorStateKB(first.study) * 1024,
	}
	for _, name := range append(reproStages, "repro.pass") {
		var ms []float64
		for _, s := range spans {
			if s.name == name {
				ms = append(ms, float64(s.dur())/1e6)
			}
		}
		l[name+"_ms"] = median(ms)
	}
	l["oracle.label_ms"] = labelMS(seed)
	return l, spans, nil
}

// governorStateKB is the size of the online-IL governor the study
// deploys: its offline-trained policy plus its warm-started models, in
// the binary snapshot encoding sessions migrate with.
func governorStateKB(s *experiments.Study) float64 {
	var e snap.Encoder
	s.OfflinePolicy().EncodeTo(&e)
	s.FreshModels().EncodeTo(&e)
	return float64(e.Len()) / 1024
}

// labelMS times Oracle labelling of the study's applications apart from
// any pass (median of three sweeps, ms): the part of NewStudy that is not
// offline training.
func labelMS(seed int64) float64 {
	p := soc.NewXU3()
	apps := append(append(workload.MiBench(seed), workload.Cortex(seed)...), workload.Parsec(seed)...)
	for i := range apps {
		if len(apps[i].Snippets) > reproSnippets {
			apps[i].Snippets = apps[i].Snippets[:reproSnippets]
		}
	}
	var label []float64
	for r := 0; r < 3; r++ {
		orc := oracle.New(p, oracle.Energy)
		t0 := time.Now()
		for _, app := range apps {
			orc.LabelAppWith(app, 1)
		}
		label = append(label, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(label)
}
