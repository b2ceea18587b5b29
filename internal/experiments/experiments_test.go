package experiments

import (
	"strings"
	"sync"
	"testing"

	"socrm/internal/control"
	"socrm/internal/governor"
	"socrm/internal/workload"
)

// Integration tests run the paper experiments at reduced scale (fewer
// snippets per application) and assert the qualitative shapes the paper
// reports. The full-scale numbers live in EXPERIMENTS.md and are
// regenerated by cmd/socrepro.

var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

// smallStudy builds one shared reduced-scale study: construction computes
// Oracle labels for 16 applications, so tests share it. All mutation
// happens through Fresh* clones, keeping the shared state read-only.
func smallStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study, studyErr = NewStudy(Options{Seed: 42, MaxSnippets: 60})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestTable2Shape(t *testing.T) {
	s := smallStudy(t)
	rows := s.Table2()
	if len(rows) != 9 {
		t.Fatalf("Table II has %d rows, want 9", len(rows))
	}
	bySuite := map[string][]float64{}
	byApp := map[string]float64{}
	for _, r := range rows {
		if r.NormEnergy < 0.999 {
			t.Fatalf("%s: normalized energy %v below 1 (cannot beat the Oracle)", r.App, r.NormEnergy)
		}
		bySuite[r.Suite] = append(bySuite[r.Suite], r.NormEnergy)
		byApp[r.App] = r.NormEnergy
	}
	// Training suite: near-Oracle.
	for _, v := range bySuite["mibench"] {
		if v > 1.05 {
			t.Fatalf("Mi-Bench app at %v, training suite should be near 1.0", v)
		}
	}
	// Unseen suites degrade, Kmeans worst among Cortex (paper: 1.76).
	if byApp["Kmns"] < 1.2 {
		t.Fatalf("Kmeans at %v, should show a large generalization gap", byApp["Kmns"])
	}
	for _, label := range []string{"MtnEst", "Spctrl"} {
		if byApp[label] <= 1.0 || byApp[label] >= byApp["Kmns"] {
			t.Fatalf("%s at %v should sit between 1.0 and Kmeans %v", label, byApp[label], byApp["Kmns"])
		}
	}
	// PARSEC (multi-threaded) shows a large gap (paper: 1.47-1.86).
	for _, v := range bySuite["parsec"] {
		if v < 1.2 {
			t.Fatalf("PARSEC app at %v, should exceed 1.2", v)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	s := smallStudy(t)
	res := s.Fig3()
	if res.ILConvergeTime < 0 {
		t.Fatal("online-IL never reached 95% Oracle agreement")
	}
	if frac := res.ILConvergeTime / res.TotalTime; frac > 0.35 {
		t.Fatalf("online-IL converged only after %.0f%% of the sequence", 100*frac)
	}
	if res.ILFinalAcc < 90 {
		t.Fatalf("online-IL final accuracy %v", res.ILFinalAcc)
	}
	if res.RLConverged {
		t.Fatal("RL converged — the paper's comparison says it must not")
	}
	if res.RLFinalAcc > 60 {
		t.Fatalf("RL final accuracy %v suspiciously high", res.RLFinalAcc)
	}
	if len(res.IL) == 0 || len(res.RL) == 0 {
		t.Fatal("empty accuracy traces")
	}
}

func TestFig4Shape(t *testing.T) {
	s := smallStudy(t)
	rows := s.Fig4()
	if len(rows) != 16 {
		t.Fatalf("Figure 4 has %d bars, want 16", len(rows))
	}
	for _, r := range rows {
		if r.IL < 0.999 || r.RL < 0.999 {
			t.Fatalf("%s: normalized energy below 1 (IL %v, RL %v)", r.App, r.IL, r.RL)
		}
		// Online-IL tracks the Oracle everywhere (paper: "similar to the
		// results with Oracle policy for all benchmark applications").
		if r.IL > 1.10 {
			t.Fatalf("%s: online-IL at %v, should stay near the Oracle", r.App, r.IL)
		}
		// On the unseen suites RL never beats online-IL (on the training
		// suite both are near 1.0 and may tie within noise).
		if r.Group == "online" && r.RL < r.IL {
			t.Fatalf("%s: RL (%v) beat online-IL (%v)", r.App, r.RL, r.IL)
		}
	}
	// RL is substantially worse on at least one unseen app (paper: 1.4x).
	worstRL := 0.0
	for _, r := range rows {
		if r.Group == "online" && r.RL > worstRL {
			worstRL = r.RL
		}
	}
	if worstRL < 1.3 {
		t.Fatalf("RL worst case %v on unseen apps, expected a clear gap", worstRL)
	}
}

func TestFig2Shape(t *testing.T) {
	res := Fig2(42)
	if res.MAPE >= 0.05 {
		t.Fatalf("Figure 2 MAPE %.2f%%, paper reports <5%%", 100*res.MAPE)
	}
	if len(res.Points) < 1000 {
		t.Fatalf("only %d points", len(res.Points))
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(DefaultFig5Options())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("Figure 5 has %d titles, want 10", len(res.Rows))
	}
	byName := map[string]Fig5Row{}
	for _, r := range res.Rows {
		byName[r.App] = r
	}
	// Savings spread: lightest title saves the most, heaviest the least
	// (paper: SharkDash 58%, AngryBirds 5%).
	if byName["SharkDash"].GPUSavings <= byName["AngryBirds"].GPUSavings {
		t.Fatal("SharkDash must save more than AngryBirds")
	}
	if byName["SharkDash"].GPUSavings < 0.3 {
		t.Fatalf("SharkDash GPU savings %.0f%% too small", 100*byName["SharkDash"].GPUSavings)
	}
	if byName["AngryBirds"].GPUSavings > 0.2 {
		t.Fatalf("AngryBirds GPU savings %.0f%% too large for the heaviest title", 100*byName["AngryBirds"].GPUSavings)
	}
	// Average around the paper's 25% (we accept 15-35%).
	if res.Average.GPUSavings < 0.15 || res.Average.GPUSavings > 0.35 {
		t.Fatalf("average GPU savings %.0f%%, expected in the paper's regime", 100*res.Average.GPUSavings)
	}
	// PKG savings diluted versus GPU (paper: 25% GPU -> 15% PKG).
	if res.Average.PKGSavings >= res.Average.GPUSavings {
		t.Fatal("PKG savings should be diluted relative to GPU savings")
	}
	// Negligible performance overhead (paper: 0.4%).
	if res.PerfOverhead > 0.01 {
		t.Fatalf("perf overhead %.2f%%", 100*res.PerfOverhead)
	}
}

func TestBufferSizeAblation(t *testing.T) {
	s := smallStudy(t)
	pts := s.BufferSizeAblation([]int{8, 64})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	small, large := pts[0], pts[1]
	if small.ConvergeTime < 0 {
		t.Fatal("small buffer did not converge")
	}
	// A small buffer must converge no later than a large one (more
	// frequent updates), and its footprint must be smaller.
	if large.ConvergeTime >= 0 && small.ConvergeTime > large.ConvergeTime*1.5 {
		t.Fatalf("small buffer converged at %v, large at %v", small.ConvergeTime, large.ConvergeTime)
	}
	if small.Bytes >= large.Bytes {
		t.Fatal("buffer bytes not monotone in capacity")
	}
}

func TestForgettingAblation(t *testing.T) {
	pts := ForgettingAblation(42, 0)
	byName := map[string]ForgettingPoint{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	staff := byName["staff"]
	if staff.MAPE >= 0.05 {
		t.Fatalf("STAFF MAPE %.2f%%", 100*staff.MAPE)
	}
	// STAFF must beat the aggressive fixed forgetting factor (which
	// diverges under poor excitation).
	if staff.MAPE >= byName["rls-0.900"].MAPE {
		t.Fatalf("STAFF (%.2f%%) should beat rls-0.900 (%.2f%%)",
			100*staff.MAPE, 100*byName["rls-0.900"].MAPE)
	}
}

func TestCadenceAblation(t *testing.T) {
	pts, err := CadenceAblation(42, []int{5, 120}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eager, lazy := pts[0], pts[1]
	if eager.Reconfigs <= lazy.Reconfigs {
		t.Fatalf("eager cadence reconfigs %d should exceed lazy %d", eager.Reconfigs, lazy.Reconfigs)
	}
	for _, p := range pts {
		if p.GPUSavings <= 0 {
			t.Fatalf("cadence %d lost energy vs baseline", p.SlowPeriod)
		}
	}
}

// TestThermalConditionStudy repeats the Figure 5 average at two platform
// temperatures, checking the paper's claim that "the energy savings are
// consistent at different platform thermal conditions".
func TestThermalConditionStudy(t *testing.T) {
	var savings []float64
	for _, tc := range []float64{45, 70} {
		opt := DefaultFig5Options()
		opt.Seed = 42
		opt.Temp = tc
		res, err := Fig5(opt)
		if err != nil {
			t.Fatal(err)
		}
		savings = append(savings, res.Average.GPUSavings)
	}
	// Allow a modest drift, require the same ballpark.
	lo, hi := savings[0], savings[1]
	if lo < 0.1 || hi < 0.1 {
		t.Fatalf("savings collapsed at some temperature: %v vs %v", lo, hi)
	}
	diff := hi - lo
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.15 {
		t.Fatalf("savings drift %.0f%% across temperature too large", 100*diff)
	}
}

// policyEnergy runs a decider over the Figure 3 sequence and returns its
// energy normalized by the Oracle.
func policyEnergy(s *Study, d control.Decider) float64 {
	seq := workload.NewSequence(append(append([]workload.Application{}, s.Cortex...), s.Parsec...)...)
	var orcE float64
	for _, app := range seq.Apps {
		orcE += s.OracleEnergy(app.Name)
	}
	run := control.Run(s.P, seq, d, s.defaultStart())
	return run.Energy / orcE
}

func TestGovernorsWorseThanOnlineIL(t *testing.T) {
	s := smallStudy(t)
	il := policyEnergy(s, s.FreshOnlineIL())
	ond := policyEnergy(s, governor.NewOndemand(s.P))
	perf := policyEnergy(s, governor.Performance{P: s.P})
	if il >= ond {
		t.Fatalf("online-IL (%v) should beat ondemand (%v)", il, ond)
	}
	if ond >= perf {
		t.Fatalf("ondemand (%v) should beat performance (%v)", ond, perf)
	}
}

func TestLabelsPanicsOnUnknownApp(t *testing.T) {
	s := buildStudy(t, 1)
	for _, probe := range []func(){
		func() { s.Labels("NoSuchApp") },
		func() { s.OracleEnergy("NoSuchApp") },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("unknown app name did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "NoSuchApp") {
					t.Fatalf("panic does not name the missing app: %v", r)
				}
			}()
			probe()
		}()
	}
}
