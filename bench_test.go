// Package socrm's root benchmarks regenerate every table and figure of the
// paper (run with `go test -bench=. -benchmem`). Headline quantities are
// attached to each benchmark via ReportMetric, so `go test -bench` output
// doubles as the reproduction summary:
//
//	BenchmarkFig2FrameTimeRLS      reports mape_pct        (paper: <5)
//	BenchmarkTable2OfflineIL       reports kmeans_x, parsec4t_x
//	BenchmarkFig3Convergence       reports converge_pct_of_seq
//	BenchmarkFig4EnergyComparison  reports worst_il_x, worst_rl_x
//	BenchmarkFig5ENMPC             reports avg_gpu_save_pct, pkg_save_pct
//
// The experiment benchmarks run at a reduced per-app snippet count so the
// full suite stays in benchmark-friendly time; cmd/socrepro runs the
// paper-scale versions.
package socrm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/cluster"
	"socrm/internal/control"
	"socrm/internal/experiments"
	"socrm/internal/gpu"
	"socrm/internal/il"
	"socrm/internal/metrics"
	"socrm/internal/mlp"
	"socrm/internal/nmpc"
	"socrm/internal/noc"
	"socrm/internal/oracle"
	"socrm/internal/rls"
	"socrm/internal/serve"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

var (
	benchOnce  sync.Once
	benchStudy *experiments.Study
)

func study(b *testing.B) *experiments.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := experiments.NewStudy(experiments.Options{Seed: 42, MaxSnippets: 60})
		if err != nil {
			panic(err)
		}
		benchStudy = s
	})
	return benchStudy
}

// BenchmarkFig2FrameTimeRLS regenerates Figure 2: online frame-time
// prediction on the Nenamark2-like trace under runtime DVFS.
func BenchmarkFig2FrameTimeRLS(b *testing.B) {
	var mape float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(42)
		mape = res.MAPE
	}
	b.ReportMetric(100*mape, "mape_pct")
}

// BenchmarkTable2OfflineIL regenerates Table II: the Mi-Bench-trained
// offline policy evaluated across suites, normalized to the Oracle.
func BenchmarkTable2OfflineIL(b *testing.B) {
	s := study(b)
	var kmeans, parsec4t float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Table2() {
			switch r.App {
			case "Kmns":
				kmeans = r.NormEnergy
			case "Blkschls4T":
				parsec4t = r.NormEnergy
			}
		}
	}
	b.ReportMetric(kmeans, "kmeans_x")
	b.ReportMetric(parsec4t, "parsec4t_x")
}

// BenchmarkFig3Convergence regenerates Figure 3: online-IL vs RL
// Oracle-agreement convergence on the unseen application sequence.
func BenchmarkFig3Convergence(b *testing.B) {
	s := study(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Fig3()
		if res.ILConvergeTime > 0 {
			frac = 100 * res.ILConvergeTime / res.TotalTime
		}
	}
	b.ReportMetric(frac, "converge_pct_of_seq")
}

// BenchmarkFig4EnergyComparison regenerates Figure 4: per-benchmark energy
// of online-IL and RL normalized to the Oracle.
func BenchmarkFig4EnergyComparison(b *testing.B) {
	s := study(b)
	var worstIL, worstRL float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worstIL, worstRL = 0, 0
		for _, r := range s.Fig4() {
			if r.IL > worstIL {
				worstIL = r.IL
			}
			if r.RL > worstRL {
				worstRL = r.RL
			}
		}
	}
	b.ReportMetric(worstIL, "worst_il_x")
	b.ReportMetric(worstRL, "worst_rl_x")
}

// BenchmarkFig5ENMPC regenerates Figure 5: explicit NMPC energy savings
// over the baseline GPU governor across the ten titles.
func BenchmarkFig5ENMPC(b *testing.B) {
	var avg, pkg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.DefaultFig5Options())
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Average.GPUSavings
		pkg = res.Average.PKGSavings
	}
	b.ReportMetric(100*avg, "avg_gpu_save_pct")
	b.ReportMetric(100*pkg, "pkg_save_pct")
}

// BenchmarkAblationBufferSize measures the aggregation-buffer trade-off of
// Section IV-A3 (the paper's "<20 KB for ~100 decisions" design point).
func BenchmarkAblationBufferSize(b *testing.B) {
	s := study(b)
	var conv8, conv64 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := s.BufferSizeAblation([]int{8, 64})
		conv8, conv64 = pts[0].ConvergeTime, pts[1].ConvergeTime
	}
	b.ReportMetric(conv8, "converge_s_buf8")
	b.ReportMetric(conv64, "converge_s_buf64")
}

// BenchmarkAblationForgetting compares fixed forgetting factors against
// STAFF on the Figure 2 task (Section III-B, ref [30]).
func BenchmarkAblationForgetting(b *testing.B) {
	var staff, rls090 float64
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.ForgettingAblation(42, 0) {
			switch p.Name {
			case "staff":
				staff = p.MAPE
			case "rls-0.900":
				rls090 = p.MAPE
			}
		}
	}
	b.ReportMetric(100*staff, "staff_mape_pct")
	b.ReportMetric(100*rls090, "rls090_mape_pct")
}

// BenchmarkAblationNeighborhood varies the candidate radius of the online
// Oracle approximation.
func BenchmarkAblationNeighborhood(b *testing.B) {
	s := study(b)
	var conv1, conv3 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := s.NeighborhoodAblation([]int{1, 3})
		conv1, conv3 = pts[0].ConvergeTime, pts[1].ConvergeTime
	}
	b.ReportMetric(conv1, "converge_s_r1")
	b.ReportMetric(conv3, "converge_s_r3")
}

// BenchmarkAblationHorizon varies the slow-rate cadence of the multi-rate
// controller (Section IV-B).
func BenchmarkAblationHorizon(b *testing.B) {
	var save5, save120 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CadenceAblation(42, []int{5, 120}, 0)
		if err != nil {
			b.Fatal(err)
		}
		save5, save120 = pts[0].GPUSavings, pts[1].GPUSavings
	}
	b.ReportMetric(100*save5, "save_pct_k5")
	b.ReportMetric(100*save120, "save_pct_k120")
}

// ---- Experiment-engine benchmarks: serial vs pooled wall-time ----
// The engine guarantees bit-identical outputs for any worker count, so
// these only measure scheduling. speedup_x on an N-core runner should
// approach N for the Oracle-labeling-dominated study construction.

// BenchmarkNewStudySerial is the fully serial reference (workers=1).
// Note: the seed's NewStudy was already snippet-parallel inside
// LabelApp, so speedup_x measures pool-vs-serial scheduling, not a
// before/after-this-PR comparison.
func BenchmarkNewStudySerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewStudy(experiments.Options{Seed: 42, MaxSnippets: 16, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewStudyParallel runs the same construction on a full pool.
func BenchmarkNewStudyParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewStudy(experiments.Options{Seed: 42, MaxSnippets: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewStudySpeedup times both paths back to back and reports the
// parallel-over-serial speedup directly.
func BenchmarkNewStudySpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := experiments.NewStudy(experiments.Options{Seed: 42, MaxSnippets: 16, Workers: 1}); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t1 := time.Now()
		if _, err := experiments.NewStudy(experiments.Options{Seed: 42, MaxSnippets: 16}); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t1)
		speedup = serial.Seconds() / parallel.Seconds()
	}
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// BenchmarkFig5Speedup measures the pooled Figure 5 sweep against its
// serial reference the same way.
func BenchmarkFig5Speedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		opt := experiments.DefaultFig5Options()
		opt.Workers = 1
		t0 := time.Now()
		if _, err := experiments.Fig5(opt); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		opt.Workers = 0
		t1 := time.Now()
		if _, err := experiments.Fig5(opt); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t1)
		speedup = serial.Seconds() / parallel.Seconds()
	}
	b.ReportMetric(speedup, "speedup_x")
}

// ---- Microbenchmarks: the per-decision costs the paper cares about ----
// (the whole point of explicit NMPC and compact IL policies is that the
// online decision fits firmware/governor budgets).

func BenchmarkPlatformExecute(b *testing.B) {
	p := soc.NewXU3()
	s := workload.MiBench(1)[0].Snippets[0]
	cfg := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 2, NBig: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Execute(s, cfg)
	}
}

func BenchmarkOracleSnippetSweep(b *testing.B) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	s := workload.MiBench(1)[0].Snippets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc.Best(s) // 4940 configurations
	}
}

// BenchmarkNeighborhoodAppend measures the materialized candidate-set
// enumeration (radius 3 from an interior configuration, the online-IL
// default) into a reused buffer. The online-IL decision no longer builds
// this list — Evaluator.Best sweeps the same ranges in place — so this is
// the cost of the reference enumeration its tests compare against.
func BenchmarkNeighborhoodAppend(b *testing.B) {
	p := soc.NewXU3()
	c := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 2, NBig: 2}
	var buf []soc.Config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendNeighborhood(buf[:0], c, 3)
	}
}

func BenchmarkOnlineILDecision(b *testing.B) {
	s := study(b)
	oil := s.FreshOnlineIL()
	app := s.Cortex[0]
	res := s.P.Execute(app.Snippets[0], s.P.MaxPerfConfig())
	st := control.State{
		Counters: res.Counters,
		Derived:  res.Counters.Derived(),
		Config:   s.P.MaxPerfConfig(),
		Threads:  1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oil.Decide(st)
	}
}

// benchAggState drives workload traces through an online learner until a
// decision aggregates (the argmin is interior), returning that state;
// re-deciding it aggregates every time since the models are not updated
// afterwards.
func benchAggState(b *testing.B, s *experiments.Study, oil *il.OnlineIL) control.State {
	b.Helper()
	p := s.P
	tr := oil.Trainer()
	for _, app := range s.MiBench {
		cfg := p.Clamp(soc.Config{LittleFreqIdx: 4, BigFreqIdx: 6, NLittle: 4, NBig: 2})
		for _, sn := range app.Snippets {
			res := p.Execute(sn, cfg)
			st := control.State{
				Counters: res.Counters,
				Derived:  res.Counters.Derived(),
				Config:   cfg,
				Threads:  sn.Threads,
			}
			buf, upd := tr.Buffered(), tr.Updates()
			next := p.Clamp(oil.Decide(st))
			if tr.Buffered() > buf || tr.Updates() > upd {
				return st
			}
			oil.Models.Update(st)
			cfg = next
		}
	}
	b.Fatal("no aggregating state found")
	return control.State{}
}

// BenchmarkOnlineILDecideSyncRetrain is an online-IL decide that aggregates
// every call, so every BufferCap-th decide also pays the inline MLP
// retrain: ns/op is the candidate sweep plus an eighth of a retrain, and
// p99_ns is a decide that retrained. The CI allocs/op gate covers it. Its
// retrains are not a served retrain's: one state is re-decided until training on
// it converges, so the policy's momenta decay into the subnormal range and
// most of a retrain's time is subnormal arithmetic on nonzero inputs,
// which the training kernel's exact skip does not cover.
// BenchmarkMLPRetrainServing times a served retrain.
func BenchmarkOnlineILDecideSyncRetrain(b *testing.B) {
	s := study(b)
	oil := s.FreshOnlineIL()
	st := benchAggState(b, s, oil)
	var h metrics.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		oil.Decide(st)
		h.Observe(time.Since(t0).Seconds())
	}
	b.StopTimer()
	b.ReportMetric(h.Quantile(0.99)*1e9, "p99_ns")
	b.ReportMetric(float64(oil.Updates()), "inline_retrains")
}

func BenchmarkPolicyInference(b *testing.B) {
	s := study(b)
	pol := s.OfflinePolicy()
	app := s.MiBench[0]
	res := s.P.Execute(app.Snippets[0], s.P.MaxPerfConfig())
	st := control.State{
		Counters: res.Counters,
		Derived:  res.Counters.Derived(),
		Config:   s.P.MaxPerfConfig(),
		Threads:  1,
	}
	feats := st.Features(s.P)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.PredictConfig(feats)
	}
}

func BenchmarkExplicitNMPCDecision(b *testing.B) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := nmpc.NewGPUModels(dev)
	m.Warmup(budget)
	ex, err := nmpc.FitExplicit(dev, m, budget)
	if err != nil {
		b.Fatal(err)
	}
	st := gpu.State{FreqIdx: 8, Slices: 2}
	stats := dev.RenderFrame(workload.Frame{Load: 0.4, MemRatio: 0.3}, budget, st, st)
	obs := nmpc.FrameObs{Stats: stats, Budget: budget}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Next(obs)
	}
}

func BenchmarkMultiRateNMPCDecision(b *testing.B) {
	dev := gpu.NewIntelGen9()
	budget := 1.0 / 30
	m := nmpc.NewGPUModels(dev)
	m.Warmup(budget)
	c := nmpc.NewMultiRate(dev, m)
	st := gpu.State{FreqIdx: 8, Slices: 2}
	stats := dev.RenderFrame(workload.Frame{Load: 0.4, MemRatio: 0.3}, budget, st, st)
	obs := nmpc.FrameObs{Stats: stats, Budget: budget}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Next(obs)
	}
}

func BenchmarkRLSUpdate(b *testing.B) {
	r := rls.New(10, 0.98, 100)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Update(x, 1.0)
	}
}

// BenchmarkMLPTrainStep times one TrainStep of the 13-24-16-4 policy
// network on an all-zero input with a constant target. It is a probe of
// the kernel's subnormal regime, not of the serving cost, and its ns/op
// must not be read as one. The network converges on its one sample, and
// after about 7,000 steps every hidden-layer weight and bias momentum is
// subnormal, so from then on most of a step is microcode-assisted
// subnormal arithmetic on nonzero inputs, where the exact skip does not
// apply. At the default benchtime, ns/op (a mean over b.N steps) lands
// there: 28–35 µs on the Go loops and about 12 µs on the AVX2 kernel
// (one assist covers four lanes), against 2–3.5 µs for a TrainStep of a
// served retrain. BenchmarkMLPRetrainServing is the served unit of
// training work.
func BenchmarkMLPTrainStep(b *testing.B) {
	n := mlp.New(1, mlp.Tanh, control.NumFeatures, 24, 16, 4)
	x := make([]float64, control.NumFeatures)
	y := []float64{0.5, 0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TrainStep(x, y, 0.01, 0.9)
	}
}

// servedRetrain is the shared set-up of BenchmarkMLPRetrainServing,
// built once per process: a served learner warmed by inline retrains, and
// one retrain batch of its standardized served features.
var servedRetrain struct {
	once   sync.Once
	oil    *il.OnlineIL
	xs, ys [][]float64
}

// servedRetrainBatch drives one fleet-learn device — the first
// workload.AllApps application truncated to 48 snippets, 8 records per
// batch executed at the configuration the previous batch returned,
// starting from the daemon's session start — through an inline-training
// online-IL learner on the serving bootstrap policy, in a session's
// decide-then-observe order. After warmRetrains retrains it stops training
// and, once a buffer's worth more has queued (checked after every 8
// records), keeps the newest buffer's worth as the retrain batch.
func servedRetrainBatch(b *testing.B) (*il.OnlineIL, [][]float64, [][]float64) {
	b.Helper()
	const warmRetrains, snippets, records = 64, 48, 8
	sr := &servedRetrain
	sr.once.Do(func() {
		p := soc.NewXU3()
		pol, err := serve.TrainBootstrapPolicy(p, 1, 4, 24)
		if err != nil {
			panic(err)
		}
		oil := il.NewOnlineILSeeded(p, pol, serve.WarmModels(p, 1, 40), 1)
		app := workload.AllApps(1)[0]
		app.Snippets = app.Snippets[:snippets]
		cfg := soc.Config{LittleFreqIdx: len(p.LittleOPPs) / 2, BigFreqIdx: len(p.BigOPPs) / 2, NLittle: 4, NBig: 2}
		var prev control.State
		capturing, batch := false, oil.BufferCap
		for pos := 0; ; {
			var next soc.Config
			for r := 0; r < records; r++ {
				sn := app.Snippets[pos%snippets]
				res := p.Execute(sn, cfg)
				st := control.State{Counters: res.Counters, Derived: res.Counters.Derived(), Config: cfg, Threads: sn.Threads}
				queued := oil.Trainer().Buffered()
				best := oil.Decide(st)
				next = p.Clamp(best)
				if capturing && oil.Trainer().Buffered() > queued {
					// Decide queued the state's features labelled with best.
					x := make([]float64, control.NumFeatures)
					sr.xs = append(sr.xs, oil.Policy().Scaler.TransformInto(x, st.AppendFeatures(nil, p)))
					sr.ys = append(sr.ys, p.AppendFeatures(nil, best))
				}
				if pos > 0 {
					oil.Observe(prev, cfg, res, st)
				}
				prev = st
				pos++
			}
			cfg = next
			if !capturing && oil.Updates() >= warmRetrains {
				// Capture the next batch instead of training on it: with a
				// BufferCap no queue reaches, Ingest only queues.
				capturing = true
				oil.BufferCap = 1 << 20
			}
			if n := len(sr.xs); n >= batch {
				sr.xs, sr.ys = sr.xs[n-batch:], sr.ys[n-batch:]
				break
			}
		}
		sr.oil = oil
	})
	return sr.oil, sr.xs, sr.ys
}

// BenchmarkMLPRetrainServing is one inline online-IL retrain: 8 samples x
// 80 epochs at lr 0.02 and momentum 0.9 (the learner's defaults) of the
// serving bootstrap policy on standardized served features — the unit of
// training work fleet-learn pays 32 times per op. The bootstrap scaler
// maps served input columns to exactly 0 (zero_cols reports how many), so
// after the warm retrains layer 0's momentum on those columns sits at a
// subnormal fixed point, the regime a long-lived served session trains
// in. Every op keeps training the same network, as a session does.
func BenchmarkMLPRetrainServing(b *testing.B) {
	oil, xs, ys := servedRetrainBatch(b)
	zeroCols := 0
	for i := range xs[0] {
		zero := true
		for _, x := range xs {
			zero = zero && x[i] == 0
		}
		if zero {
			zeroCols++
		}
	}
	if zeroCols == 0 {
		b.Fatal("no served input column standardizes to 0; the benchmark no longer measures the served regime")
	}
	net := oil.Policy().Net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainEpochs(xs, ys, oil.Epochs, oil.LR, oil.Momentum, oil.Seed+int64(i))
	}
	b.StopTimer()
	b.ReportMetric(float64(zeroCols), "zero_cols")
}

func BenchmarkNoCSimulate(b *testing.B) {
	m := noc.NewMesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Simulate(noc.SimParams{
			Lambda: 0.08, Pattern: noc.Uniform, Classes: 2,
			Cycles: 5000, Warmup: 1000, Seed: int64(i),
		})
	}
}

func BenchmarkNoCAnalytical(b *testing.B) {
	m := noc.NewMesh(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Analytical(0.05, noc.Uniform, 2, nil)
	}
}

func BenchmarkOnlineModelPredict(b *testing.B) {
	s := study(b)
	models := s.FreshModels()
	app := s.Cortex[0]
	cfg := soc.Config{LittleFreqIdx: 8, BigFreqIdx: 3, NLittle: 1, NBig: 0}
	res := s.P.Execute(app.Snippets[0], cfg)
	st := control.State{
		Counters: res.Counters,
		Derived:  res.Counters.Derived(),
		Config:   cfg,
		Threads:  1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		models.Predict(st, cfg)
	}
}

// ---- Serving-layer throughput benchmarks ----
// The governor is meant to run continuously per device with negligible
// overhead, so the service around the decision kernel must be as cheap as
// the kernel itself. These measure the daemon's step path: over the HTTP
// handler (JSON in/out, no network) and over the in-process calls
// (Server.Step, Server.StepBatch) that embedders use. steps/sec is the headline;
// the seed single-mutex/JSON-only path measured ~104k steps/sec at 15
// allocs/op on the concurrent benchmark.

var (
	serveOnce     sync.Once
	serveSrv      *serve.Server
	serveOneShard *serve.Server
	serveTel      serve.StepTelemetry
)

func newBenchServer(shards int) *serve.Server {
	p := soc.NewXU3()
	pol, err := serve.TrainBootstrapPolicy(p, 1, 2, 8)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := il.SaveMLPPolicy(&buf, pol); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "socrm-bench")
	if err != nil {
		panic(err)
	}
	path := filepath.Join(dir, "policy.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		panic(err)
	}
	store := serve.NewPolicyStore(path, p)
	if err := store.Load(); err != nil {
		panic(err)
	}
	// The store read the file fully; don't leak a temp dir per bench run.
	os.RemoveAll(dir)
	return serve.New(serve.Options{
		Platform: p, Store: store, MaxSessions: 1 << 16, Shards: shards,
	})
}

func benchServer(b *testing.B) (*serve.Server, serve.StepTelemetry) {
	b.Helper()
	serveOnce.Do(func() {
		serveSrv = newBenchServer(0)
		serveOneShard = newBenchServer(1)
		p := soc.NewXU3()
		app := workload.MiBench(3)[0]
		cfg := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2}
		res := p.Execute(app.Snippets[0], cfg)
		serveTel = serve.StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: 1,
			TimeS: res.Time, EnergyJ: res.Energy,
		}
	})
	return serveSrv, serveTel
}

// discardResponseWriter sinks handler output without the per-request
// buffers of httptest.ResponseRecorder, so the benchmarks measure the
// server's own allocations.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// reusableBody re-arms one request body without a per-step NopCloser.
type reusableBody struct{ r bytes.Reader }

func (rb *reusableBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *reusableBody) Close() error               { return nil }

// benchSession opens one session; it reports failure with b.Error (not
// Fatal) because it also runs inside RunParallel worker goroutines, where
// FailNow is not allowed — callers must treat "" as failure.
func benchSession(b *testing.B, srv *serve.Server) string {
	b.Helper()
	created, err := srv.CreateSession(serve.CreateRequest{Policy: serve.PolicyOfflineIL})
	if err != nil {
		b.Error(err)
		return ""
	}
	return created.ID
}

// BenchmarkServeStepThroughput measures the HTTP step endpoint end to end
// minus the network: routing, JSON decode, decide, JSON encode.
func BenchmarkServeStepThroughput(b *testing.B) {
	srv, tel := benchServer(b)
	h := srv.Handler()
	id := benchSession(b, srv)
	body, err := json.Marshal(serve.StepRequest{StepTelemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/step", nil)
	rb := &reusableBody{}
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.r.Reset(body)
		req.Body = rb
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkStepDecode measures the step endpoint's body decode alone.
// canonical is a json.Marshal'd StepRequest, which takes the hand-written
// fast path; fallback is the same body with one key case-folded, which only
// encoding/json accepts, so it measures the reference decoder.
func BenchmarkStepDecode(b *testing.B) {
	_, tel := benchServer(b)
	canonical, err := json.Marshal(serve.StepRequest{StepTelemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	fallback := bytes.Replace(canonical, []byte(`"threads"`), []byte(`"Threads"`), 1)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			var dec serve.StepDecoder
			req := httptest.NewRequest(http.MethodPost, "/", nil)
			req.ContentLength = int64(len(bc.body))
			rb := &reusableBody{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rb.r.Reset(bc.body)
				req.Body = rb
				if _, err := dec.Decode(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(bc.body)), "body_bytes")
		})
	}
}

// BenchmarkServeBatchStep measures POST /v1/step/batch: 16 sessions x 4
// telemetry records per request, the fleet-aggregator shape.
func BenchmarkServeBatchStep(b *testing.B) {
	srv, tel := benchServer(b)
	h := srv.Handler()
	var breq serve.BatchRequest
	for s := 0; s < 16; s++ {
		breq.Entries = append(breq.Entries, serve.BatchEntry{
			Session: serve.SessionRef(benchSession(b, srv)),
			Steps:   []serve.StepTelemetry{tel, tel, tel, tel},
		})
	}
	body, err := json.Marshal(breq)
	if err != nil {
		b.Fatal(err)
	}
	const perReq = 16 * 4
	req := httptest.NewRequest(http.MethodPost, "/v1/step/batch", nil)
	rb := &reusableBody{}
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.r.Reset(body)
		req.Body = rb
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(b.N*perReq)/b.Elapsed().Seconds(), "steps/sec")
}

// benchConcurrentDirect is the concurrent-session stepping loop over the
// direct in-process fast path: every parallel worker owns one session, so
// cross-session scalability is limited only by the registry and metrics.
func benchConcurrentDirect(b *testing.B, srv *serve.Server, tel serve.StepTelemetry) {
	var nstep atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := benchSession(b, srv)
		if id == "" {
			return
		}
		t := tel
		for pb.Next() {
			if _, _, err := srv.Step(id, &t); err != nil {
				b.Error(err)
				return
			}
			nstep.Add(1)
		}
	})
	b.ReportMetric(float64(nstep.Load())/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkServeConcurrentSessions is the headline serving benchmark: many
// sessions stepped concurrently against the sharded registry.
func BenchmarkServeConcurrentSessions(b *testing.B) {
	srv, tel := benchServer(b)
	benchConcurrentDirect(b, srv, tel)
}

// BenchmarkServeConcurrentSessionsOneShard degrades the registry to a
// single shard — the seed's single-mutex topology — isolating what the
// sharding buys under cross-session contention (visible on multicore
// runners; on one core the two match).
func BenchmarkServeConcurrentSessionsOneShard(b *testing.B) {
	_, tel := benchServer(b)
	benchConcurrentDirect(b, serveOneShard, tel)
}

var sinkDataset il.Dataset // prevents dead-code elimination in builds

func BenchmarkBuildDatasetSmall(b *testing.B) {
	p := soc.NewXU3()
	orc := oracle.New(p, oracle.Energy)
	apps := workload.MiBench(1)[:1]
	apps[0].Snippets = apps[0].Snippets[:8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDataset = il.BuildDataset(p, orc, apps)
	}
}

// ---- PR7: cluster/migration benchmarks ----

// snapshotBenchSession opens a session and warms it with a few closed-loop
// steps so the exported snapshot carries realistic state (prev telemetry,
// trained policy) rather than a freshly created shell.
func snapshotBenchSession(b *testing.B, srv *serve.Server) (string, []byte) {
	b.Helper()
	id := benchSession(b, srv)
	if id == "" {
		b.Fatal("session create failed")
	}
	_, tel := benchServer(b)
	for i := 0; i < 8; i++ {
		t := tel
		if _, _, err := srv.Step(id, &t); err != nil {
			b.Fatal(err)
		}
	}
	data, err := srv.ExportSession(id)
	if err != nil {
		b.Fatal(err)
	}
	return id, data
}

// BenchmarkSessionExport measures the migration snapshot encode: what one
// session costs to serialize during a drain or rebalance.
func BenchmarkSessionExport(b *testing.B) {
	srv, _ := benchServer(b)
	id, data := snapshotBenchSession(b, srv)
	defer srv.CloseSession(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := srv.ExportSession(id)
		if err != nil {
			b.Fatal(err)
		}
		data = out
	}
	b.ReportMetric(float64(len(data)), "snapshot_bytes")
}

// BenchmarkSessionImport measures the restore half: decode + session
// rebuild + registry insert. Epoch fencing makes importing the same
// envelope twice a 409 by design (that's two routers racing one failover),
// so each iteration detaches the restored session outside the timer to
// mint the next-epoch envelope — the real handoff cycle, with only the
// import inside the measurement.
func BenchmarkSessionImport(b *testing.B) {
	srv, _ := benchServer(b)
	id, _ := snapshotBenchSession(b, srv)
	data, err := srv.DetachSession(id)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.CloseSession(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.ImportSession(data); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		out, err := srv.DetachSession(id)
		if err != nil {
			b.Fatal(err)
		}
		data = out
		b.StartTimer()
	}
	if _, err := srv.ImportSession(data); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRouterStep measures one step through the consistent-hash front
// tier against a real HTTP backend — the full proxied path (route, forward
// over loopback, copy the response). Compare against
// BenchmarkServeStepThroughput (the same step without the router) for the
// router's overhead.
func BenchmarkRouterStep(b *testing.B) {
	backendSrv := newBenchServer(0)
	backend := httptest.NewServer(backendSrv.Handler())
	defer backend.Close()
	rt := cluster.NewRouter(cluster.RouterOptions{Backends: []string{backend.URL}})
	rt.Probe()
	h := rt.Handler()

	_, tel := benchServer(b)
	w := httptest.NewRecorder()
	createBody, _ := json.Marshal(serve.CreateRequest{Policy: serve.PolicyOfflineIL})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(createBody))
	h.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		b.Fatalf("create via router = %d: %s", w.Code, w.Body)
	}
	var created serve.CreateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		b.Fatal(err)
	}

	body, _ := json.Marshal(serve.StepRequest{StepTelemetry: tel})
	stepReq := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+created.ID+"/step", nil)
	rb := &reusableBody{}
	dw := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.r.Reset(body)
		stepReq.Body = rb
		h.ServeHTTP(dw, stepReq)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// ---- PR8: durability/replication benchmarks ----

// BenchmarkCheckpointExport measures one checkpoint record end to end:
// export the session snapshot and append it (CRC + length-prefix, no
// fsync) to the store — the per-session cost of every checkpoint flush.
func BenchmarkCheckpointExport(b *testing.B) {
	srv, _ := benchServer(b)
	id, data := snapshotBenchSession(b, srv)
	defer srv.CloseSession(id)
	store, err := ckpt.Open(ckpt.Options{Dir: b.TempDir(), Sync: ckpt.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := srv.ExportSession(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Append(id, out); err != nil {
			b.Fatal(err)
		}
		data = out
	}
	b.StopTimer()
	b.ReportMetric(float64(len(data)), "snapshot_bytes")
}

// BenchmarkReplicaPush measures the replication pipeline under overload:
// enqueue on the per-peer queue (which must never block or allocate — a
// slow standby may not touch checkpoint cadence), worker POST to the
// standby, standby discards. The enqueue rate far outruns one peer's HTTP
// throughput, so most records drop oldest-first; the reported "dropped"
// metric is that pressure valve working, and timing waits for every
// record to settle (pushed, dropped, or errored) before stopping.
func BenchmarkReplicaPush(b *testing.B) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()
	srv, _ := benchServer(b)
	id, data := snapshotBenchSession(b, srv)
	defer srv.CloseSession(id)
	reg := metrics.NewRegistry()
	repl := cluster.NewReplicator(cluster.ReplicatorOptions{
		Self:      "http://self",
		Peers:     []string{"http://self", peer.URL},
		QueueSize: 1024,
		Registry:  reg,
	})
	defer repl.Stop()
	settled := func() float64 {
		return reg.Counter("socserved_replica_pushed_total", "").Value() +
			reg.Counter("socserved_replica_push_errors_total", "").Value() +
			reg.Meter("socserved_replica_queue_dropped_total", "").Value()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repl.Push(id, data)
	}
	for settled() < float64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(data)), "snapshot_bytes")
	b.ReportMetric(reg.Meter("socserved_replica_queue_dropped_total", "").Value(), "dropped")
}

// ---- PR9: overload/degradation benchmarks ----

// BenchmarkRouterStepUnderShedding measures the router's 429 fast path: one
// parked request holds the only admission slot, so every timed request is
// shed. The shed answer is the degradation contract — it must cost
// microseconds and nearly nothing in allocations, because it is exactly what
// the router does when it can least afford extra work.
func BenchmarkRouterStepUnderShedding(b *testing.B) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/step") {
			<-release // park: the admission slot stays held
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer backend.Close()
	rt := cluster.NewRouter(cluster.RouterOptions{
		Backends:    []string{backend.URL},
		MaxInflight: 1,
		CallTimeout: time.Minute,
	})
	defer rt.Stop()
	rt.Probe()
	h := rt.Handler()

	_, tel := benchServer(b)
	body, _ := json.Marshal(serve.StepRequest{StepTelemetry: tel})
	go func() {
		rb := &reusableBody{}
		rb.r.Reset(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/r-0/step", rb)
		h.ServeHTTP(&discardResponseWriter{}, req)
	}()
	inflight := rt.Metrics().Gauge("socrouted_step_inflight", "")
	for inflight.Value() < 1 {
		time.Sleep(50 * time.Microsecond)
	}

	stepReq := httptest.NewRequest(http.MethodPost, "/v1/sessions/r-0/step", nil)
	rb := &reusableBody{}
	dw := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.r.Reset(body)
		stepReq.Body = rb
		h.ServeHTTP(dw, stepReq)
	}
	b.StopTimer()
	if shed := rt.Metrics().Meter("socrouted_step_shed_total", "").Value(); shed < float64(b.N) {
		b.Fatalf("only %g of %d requests were shed", shed, b.N)
	}
	close(release)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sheds/sec")
}

// BenchmarkReplicaFanout measures the K-standby replication pipeline
// (Fanout=2 over three peers): every push enqueues on two per-peer queues,
// and timing waits until each copy settles (pushed, dropped, or errored).
// Compare against BenchmarkReplicaPush (Fanout=1 semantics) for the cost of
// the second standby.
func BenchmarkReplicaFanout(b *testing.B) {
	discard := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
		}))
	}
	peer1, peer2, peer3 := discard(), discard(), discard()
	defer peer1.Close()
	defer peer2.Close()
	defer peer3.Close()
	srv, _ := benchServer(b)
	id, data := snapshotBenchSession(b, srv)
	defer srv.CloseSession(id)
	reg := metrics.NewRegistry()
	repl := cluster.NewReplicator(cluster.ReplicatorOptions{
		Self:      "http://self",
		Peers:     []string{"http://self", peer1.URL, peer2.URL, peer3.URL},
		Fanout:    2,
		QueueSize: 1024,
		Registry:  reg,
	})
	defer repl.Stop()
	settled := func() float64 {
		return reg.Counter("socserved_replica_pushed_total", "").Value() +
			reg.Counter("socserved_replica_push_errors_total", "").Value() +
			reg.Meter("socserved_replica_queue_dropped_total", "").Value()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repl.Push(id, data)
	}
	for settled() < float64(2*b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(data)), "snapshot_bytes")
	b.ReportMetric(reg.Meter("socserved_replica_queue_dropped_total", "").Value(), "dropped")
}
