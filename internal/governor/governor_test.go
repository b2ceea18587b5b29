package governor

import (
	"testing"

	"socrm/internal/control"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

func stateWith(p *soc.Platform, s workload.Snippet, cfg soc.Config) control.State {
	r := p.Execute(s, cfg)
	return control.State{Counters: r.Counters, Derived: r.Counters.Derived(), Config: cfg, Threads: s.Threads}
}

func busySnippet() workload.Snippet {
	// Memory-stalled: low IPC looks busy to a utilization governor.
	return workload.Snippet{
		Instructions: 100e6, MemIntensity: 0.4, L2MissRate: 0.25,
		BranchMPKI: 3, BaseCPI: 1.4, ILPBigBoost: 1.4, Threads: 4,
	}
}

func idleSnippet() workload.Snippet {
	// High-IPC single thread on many cores: low busyness.
	return workload.Snippet{
		Instructions: 100e6, MemIntensity: 0.05, L2MissRate: 0.01,
		BranchMPKI: 0.5, BaseCPI: 0.6, ILPBigBoost: 2.2, Threads: 1,
	}
}

func TestOndemandJumpsToMaxUnderLoad(t *testing.T) {
	p := soc.NewXU3()
	g := NewOndemand(p)
	cfg := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 4}
	got := g.Decide(stateWith(p, busySnippet(), cfg))
	if got.BigFreqIdx != len(p.BigOPPs)-1 {
		t.Fatalf("ondemand under load chose B%d, want max", got.BigFreqIdx)
	}
}

func TestOndemandScalesDownWhenIdle(t *testing.T) {
	p := soc.NewXU3()
	g := NewOndemand(p)
	cfg := soc.Config{LittleFreqIdx: 12, BigFreqIdx: 18, NLittle: 4, NBig: 4}
	got := g.Decide(stateWith(p, idleSnippet(), cfg))
	if got.BigFreqIdx >= len(p.BigOPPs)-1 {
		t.Fatal("ondemand should scale down a lightly loaded system")
	}
}

func TestInteractiveRampsAndDecays(t *testing.T) {
	p := soc.NewXU3()
	g := NewInteractive(p)
	cfg := soc.Config{LittleFreqIdx: 3, BigFreqIdx: 3, NLittle: 4, NBig: 4}
	// Load burst: jump at least to the hispeed index.
	got := g.Decide(stateWith(p, busySnippet(), cfg))
	if got.BigFreqIdx < g.hispeedIdx() {
		t.Fatalf("interactive ramped only to B%d, hispeed is %d", got.BigFreqIdx, g.hispeedIdx())
	}
	// Sustained idle: decay step by step.
	high := got
	down1 := g.Decide(stateWith(p, idleSnippet(), high))
	if down1.BigFreqIdx >= high.BigFreqIdx {
		t.Fatal("interactive did not decay when idle")
	}
}

func TestPerformanceAndPowersave(t *testing.T) {
	p := soc.NewXU3()
	st := stateWith(p, busySnippet(), p.MaxPerfConfig())
	if got := (Performance{P: p}).Decide(st); got != p.MaxPerfConfig() {
		t.Fatalf("performance = %v", got)
	}
	if got := (Powersave{P: p}).Decide(st); got != p.MinPowerConfig() {
		t.Fatalf("powersave = %v", got)
	}
}

func TestGovernorEnergyOrdering(t *testing.T) {
	// Sanity across a real run: performance burns the most energy;
	// ondemand sits between performance and the Oracle-like low end.
	p := soc.NewXU3()
	apps := workload.MiBench(3)[:2]
	for i := range apps {
		apps[i].Snippets = apps[i].Snippets[:10]
	}
	seq := workload.NewSequence(apps...)
	start := p.MaxPerfConfig()

	perf := control.Run(p, seq, Performance{P: p}, start)
	onde := control.Run(p, seq, NewOndemand(p), start)
	save := control.Run(p, seq, Powersave{P: p}, p.MinPowerConfig())

	if perf.Energy <= onde.Energy {
		t.Fatalf("performance (%v J) should cost more than ondemand (%v J)", perf.Energy, onde.Energy)
	}
	if perf.Time >= save.Time {
		t.Fatal("performance should be fastest")
	}
}
