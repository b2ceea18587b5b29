package il

import (
	"math"
	"testing"

	"socrm/internal/control"
	"socrm/internal/oracle"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

func shortApps(n int) []workload.Application {
	apps := workload.MiBench(1)[:3]
	for i := range apps {
		apps[i].Snippets = apps[i].Snippets[:n]
	}
	return apps
}

func TestBuildDataset(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	apps := shortApps(6)
	ds := BuildDataset(p, orc, apps)
	want := 3 * 5 // per app: snippets-1 samples
	if len(ds.X) != want || len(ds.Y) != want {
		t.Fatalf("dataset size %d/%d, want %d", len(ds.X), len(ds.Y), want)
	}
	for i := range ds.X {
		if len(ds.X[i]) != control.NumFeatures {
			t.Fatalf("sample %d has %d features", i, len(ds.X[i]))
		}
		if len(ds.Y[i]) != 4 {
			t.Fatalf("label %d has %d knobs", i, len(ds.Y[i]))
		}
		for _, v := range ds.Y[i] {
			if v < 0 || v > 1 {
				t.Fatalf("label value %v not normalized", v)
			}
		}
	}
}

func TestMLPPolicyImitatesOracle(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	apps := shortApps(20)
	ds := BuildDataset(p, orc, apps)
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	// On training data the policy's big-frequency choice should be close
	// to the Oracle most of the time.
	good := 0
	for i := range ds.X {
		got := pol.PredictConfig(ds.X[i])
		want := p.FromFeatures(ds.Y[i])
		d := got.BigFreqIdx - want.BigFreqIdx
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			good++
		}
	}
	if frac := float64(good) / float64(len(ds.X)); frac < 0.85 {
		t.Fatalf("policy matches Oracle big freq on only %.0f%% of training data", 100*frac)
	}
}

func TestTreePolicyTrains(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	ds := BuildDataset(p, orc, shortApps(15))
	pol, err := TrainTreePolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pol.PredictConfig(ds.X[0])
	if !p.Valid(cfg) {
		t.Fatalf("tree policy produced invalid config %v", cfg)
	}
}

func TestTrainEmptyDatasetErrors(t *testing.T) {
	p := soc.NewXU3()
	if _, err := TrainMLPPolicy(p, Dataset{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := TrainTreePolicy(p, Dataset{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPolicyClone(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	ds := BuildDataset(p, orc, shortApps(10))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	clone := pol.Clone()
	if clone.PredictConfig(ds.X[0]) != pol.PredictConfig(ds.X[0]) {
		t.Fatal("clone differs")
	}
	// Train the clone; the original must be unaffected.
	before := pol.PredictConfig(ds.X[0])
	clone.Net.TrainEpochs([][]float64{clone.Scaler.Transform(ds.X[0])}, [][]float64{{1, 1, 1, 1}}, 200, 0.1, 0.9, 1)
	if pol.PredictConfig(ds.X[0]) != before {
		t.Fatal("training the clone mutated the original")
	}
}

func stateFor(p *soc.Platform, s workload.Snippet, cfg soc.Config) control.State {
	r := p.Execute(s, cfg)
	return control.State{
		Counters: r.Counters,
		Derived:  r.Counters.Derived(),
		Config:   cfg,
		Threads:  s.Threads,
	}
}

func TestOnlineModelsPredictAfterWarmStart(t *testing.T) {
	p := soc.NewXU3()
	m := NewOnlineModels(p)
	apps := append(shortApps(25), workload.Calibration())
	m.WarmStart(apps, WarmStartConfigs(p))

	// Prediction of the executed configuration must be close to truth.
	s := workload.Cortex(1)[0].Snippets[0] // unseen memory-bound app
	cfg := soc.Config{LittleFreqIdx: 8, BigFreqIdx: 5, NLittle: 1, NBig: 0}
	st := stateFor(p, s, cfg)
	for i := 0; i < 3; i++ {
		m.Update(st) // a few online samples settle the workload intercept
	}
	truth := p.Execute(s, cfg)
	pred := m.Predict(st, cfg)
	if rel := math.Abs(pred.Energy-truth.Energy) / truth.Energy; rel > 0.15 {
		t.Fatalf("energy prediction off by %.0f%%", 100*rel)
	}
	if rel := math.Abs(pred.Time-truth.Time) / truth.Time; rel > 0.15 {
		t.Fatalf("time prediction off by %.0f%%", 100*rel)
	}
}

func TestOnlineModelsRankCandidates(t *testing.T) {
	// The models' job is ranking: their argmin over a neighborhood must be
	// near the true argmin after a few adaptation samples.
	p := soc.NewXU3()
	m := NewOnlineModels(p)
	m.WarmStart(append(shortApps(25), workload.Calibration()), WarmStartConfigs(p))

	s := workload.Cortex(1)[0].Snippets[3]
	cfg := soc.Config{LittleFreqIdx: 8, BigFreqIdx: 3, NLittle: 1, NBig: 0}
	for i := 0; i < 3; i++ {
		m.Update(stateFor(p, s, cfg))
	}
	st := stateFor(p, s, cfg)
	cands := p.Neighborhood(cfg, 2)
	bestPred, bestTrue := cands[0], cands[0]
	bestPredE, bestTrueE := math.Inf(1), math.Inf(1)
	for _, c := range cands {
		if e := m.Predict(st, c).Energy; e < bestPredE {
			bestPred, bestPredE = c, e
		}
		if e := p.Execute(s, c).Energy; e < bestTrueE {
			bestTrue, bestTrueE = c, e
		}
	}
	lost := p.Execute(s, bestPred).Energy / bestTrueE
	if lost > 1.05 {
		t.Fatalf("model argmin %v loses %.1f%% vs true argmin %v", bestPred, 100*(lost-1), bestTrue)
	}
}

func TestOnlineILAdaptsToUnseenApp(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	ds := BuildDataset(p, orc, shortApps(20))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	models := NewOnlineModels(p)
	models.WarmStart(append(shortApps(20), workload.Calibration()), WarmStartConfigs(p))

	app := workload.Cortex(1)[0] // Kmeans-like, unseen
	app.Snippets = app.Snippets[:60]
	seq := workload.NewSequence(app)
	oil := NewOnlineIL(p, pol, models)
	start := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2}
	run := control.Run(p, seq, oil, start)

	if oil.Updates() == 0 {
		t.Fatal("online-IL never updated the policy")
	}
	// Energy must approach the Oracle.
	var orcE float64
	for _, l := range orc.LabelApp(app) {
		orcE += l.Res.Energy
	}
	if ratio := run.Energy / orcE; ratio > 1.10 {
		t.Fatalf("online-IL energy ratio %.3f, want <= 1.10", ratio)
	}
	// After adaptation the policy alone must pick the Oracle's regime
	// (big cluster off for this memory-bound app).
	last := seq.Snippets[len(seq.Snippets)-1]
	st := stateFor(p, last, run.Configs[len(run.Configs)-1])
	polCfg := oil.PolicyConfig(st)
	if polCfg.NBig != 0 {
		t.Fatalf("adapted policy still uses the big cluster: %v", polCfg)
	}
}

// TestOnlineILSeedDecorrelates pins the seed-threading contract: the
// default constructor keeps the historical seed (experiment outputs stay
// bit-identical), equal seeds give bit-identical training trajectories, and
// distinct seeds — one per served session — give distinct policies.
func TestOnlineILSeedDecorrelates(t *testing.T) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	ds := BuildDataset(p, orc, shortApps(12))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	models := NewOnlineModels(p)
	models.WarmStart(append(shortApps(12), workload.Calibration()), WarmStartConfigs(p))

	if got := NewOnlineIL(p, pol.Clone(), models.Clone()).Seed; got != DefaultSeed {
		t.Fatalf("NewOnlineIL seed = %d, want DefaultSeed (%d)", got, DefaultSeed)
	}

	app := workload.Cortex(1)[0]
	app.Snippets = app.Snippets[:30]
	seq := workload.NewSequence(app)
	start := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2}
	deploy := func(seed int64) *OnlineIL {
		oil := NewOnlineILSeeded(p, pol.Clone(), models.Clone(), seed)
		control.Run(p, seq, oil, start)
		return oil
	}
	a, b, c := deploy(DefaultSeed), deploy(DefaultSeed), deploy(DefaultSeed+1)
	if a.Updates() == 0 {
		t.Fatal("deployment never retrained the policy; the seed is untested")
	}
	raw := func(o *OnlineIL, x []float64) []float64 {
		return o.Policy().Net.Predict(o.Policy().Scaler.Transform(x))
	}
	diverged := false
	for i := range ds.X {
		ya, yb, yc := raw(a, ds.X[i]), raw(b, ds.X[i]), raw(c, ds.X[i])
		for k := range ya {
			if ya[k] != yb[k] {
				t.Fatalf("equal seeds diverged on sample %d knob %d: %v vs %v", i, k, ya[k], yb[k])
			}
			if ya[k] != yc[k] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("distinct seeds produced bit-identical policies; seed is not threaded into training")
	}
}

func TestOnlineILBufferBytes(t *testing.T) {
	p := soc.NewXU3()
	oil := NewOnlineIL(p, &MLPPolicy{P: p}, NewOnlineModels(p))
	oil.BufferCap = 100
	// The paper's storage claim: ~100 decisions need less than 20 KB.
	if oil.BufferBytes() >= 20*1024 {
		t.Fatalf("buffer of 100 decisions is %d bytes, paper claims <20KB", oil.BufferBytes())
	}
}

func TestWarmStartConfigsCoverSpace(t *testing.T) {
	p := soc.NewXU3()
	cfgs := WarmStartConfigs(p)
	var sawLittleOnly, sawBig, sawMaxFreq bool
	for _, c := range cfgs {
		if !p.Valid(c) {
			t.Fatalf("invalid warm-start config %v", c)
		}
		if c.NBig == 0 {
			sawLittleOnly = true
		}
		if c.NBig == 4 {
			sawBig = true
		}
		if c.BigFreqIdx == len(p.BigOPPs)-1 {
			sawMaxFreq = true
		}
	}
	if !sawLittleOnly || !sawBig || !sawMaxFreq {
		t.Fatal("warm-start configs must excite both clusters and the frequency range")
	}
}
