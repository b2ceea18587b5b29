//go:build !race

package il

import (
	"testing"

	"socrm/internal/control"
	"socrm/internal/oracle"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// The online-IL decision is the per-step cost the paper budgets at sub-1%
// overhead; ISSUE 3 pins it (and everything it calls) at zero steady-state
// allocations. The scenario mirrors BenchmarkOnlineILDecision: a
// memory-bound snippet observed at the max-performance configuration, so
// the candidate argmin sits on the neighborhood boundary and the decision
// is pure candidate evaluation (transitional decisions do not aggregate, so
// the occasional retrain path stays out of the measurement — its cost is
// training, not the decision loop). Gated to non-race builds: the race
// runtime instruments allocation.

func allocFixture(t *testing.T) *OnlineIL {
	t.Helper()
	p := soc.NewXU3()
	ds := BuildDataset(p, oracle.New(p, oracle.Energy), shortApps(12))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	models := NewOnlineModels(p)
	models.WarmStart(append(shortApps(12), workload.Calibration()), WarmStartConfigs(p))
	return NewOnlineIL(p, pol, models)
}

func allocState(p *soc.Platform) (stSnippet workload.Snippet, cfg soc.Config) {
	return workload.Cortex(1)[0].Snippets[0], p.MaxPerfConfig()
}

func TestDecideAllocFree(t *testing.T) {
	oil := allocFixture(t)
	sn, cfg := allocState(oil.P)
	st := stateFor(oil.P, sn, cfg)
	if avg := testing.AllocsPerRun(300, func() { oil.Decide(st) }); avg != 0 {
		t.Fatalf("Decide allocates %.1f objects per call, want 0", avg)
	}
	if oil.Updates() != 0 || oil.Buffered() != 0 {
		t.Fatalf("fixture aggregated samples (updates=%d, buffered=%d); the scenario must stay on the pure evaluation path",
			oil.Updates(), oil.Buffered())
	}
}

// findAggState drives real workload traces through the learner until a
// decision aggregates a sample (the candidate argmin is interior) and
// returns that state. Because the online models are left untouched
// afterwards, re-deciding the returned state aggregates again every time.
func findAggState(t *testing.T, oil *OnlineIL) control.State {
	t.Helper()
	p := oil.P
	for _, app := range shortApps(6) {
		cfg := p.Clamp(soc.Config{LittleFreqIdx: 4, BigFreqIdx: 6, NLittle: 4, NBig: 2})
		for _, sn := range app.Snippets {
			st := stateFor(p, sn, cfg)
			buf, upd := oil.Buffered(), oil.Updates()
			next := p.Clamp(oil.Decide(st))
			if oil.Buffered() > buf || oil.Updates() > upd {
				return st
			}
			oil.Models.Update(st)
			cfg = next
		}
	}
	t.Fatal("no aggregating state found; the probe set needs widening")
	return control.State{}
}

// TestDecideRetrainAllocFree: a Decide that aggregates every call, so that
// every BufferCap-th one also retrains the policy inline, allocates nothing
// once the ring and the retrain scratch have grown.
func TestDecideRetrainAllocFree(t *testing.T) {
	oil := allocFixture(t)
	st := findAggState(t, oil)
	for i := 0; i < oil.BufferCap; i++ {
		oil.Decide(st)
	}
	u := oil.Updates()
	if avg := testing.AllocsPerRun(4*oil.BufferCap, func() { oil.Decide(st) }); avg != 0 {
		t.Fatalf("aggregating Decide allocates %.1f objects per call, want 0", avg)
	}
	if got := oil.Updates() - u; got < 4 {
		t.Fatalf("%d retrains in the measured decisions, want at least 4", got)
	}
}

func TestEvaluatorPredictAllocFree(t *testing.T) {
	oil := allocFixture(t)
	sn, cfg := allocState(oil.P)
	st := stateFor(oil.P, sn, cfg)
	ev := oil.Models.NewEvaluator()
	ev.Begin(st)
	c := soc.Config{LittleFreqIdx: 8, BigFreqIdx: 3, NLittle: 1, NBig: 0}
	if avg := testing.AllocsPerRun(500, func() { ev.Predict(c) }); avg != 0 {
		t.Fatalf("Evaluator.Predict allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(300, func() { ev.Begin(st) }); avg != 0 {
		t.Fatalf("Evaluator.Begin allocates %.1f objects per call, want 0", avg)
	}
}

func TestOnlineModelsPredictAllocFree(t *testing.T) {
	oil := allocFixture(t)
	sn, cfg := allocState(oil.P)
	st := stateFor(oil.P, sn, cfg)
	if avg := testing.AllocsPerRun(500, func() { oil.Models.Predict(st, cfg) }); avg != 0 {
		t.Fatalf("OnlineModels.Predict allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(300, func() { oil.Models.Update(st) }); avg != 0 {
		t.Fatalf("OnlineModels.Update allocates %.1f objects per call, want 0", avg)
	}
}

func TestMLPPolicyPredictConfigAllocFree(t *testing.T) {
	oil := allocFixture(t)
	sn, cfg := allocState(oil.P)
	st := stateFor(oil.P, sn, cfg)
	feats := st.Features(oil.P)
	if avg := testing.AllocsPerRun(500, func() { oil.Policy().PredictConfig(feats) }); avg != 0 {
		t.Fatalf("MLPPolicy.PredictConfig allocates %.1f objects per call, want 0", avg)
	}
}
