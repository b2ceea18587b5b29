package rl

import (
	"testing"

	"socrm/internal/control"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

func testState(p *soc.Platform, cfg soc.Config, threads int) control.State {
	s := workload.MiBench(1)[0].Snippets[0]
	s.Threads = threads
	r := p.Execute(s, cfg)
	return control.State{Counters: r.Counters, Derived: r.Counters.Derived(), Config: cfg, Threads: threads}
}

func TestActionApply(t *testing.T) {
	p := soc.NewXU3()
	c := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 2, NBig: 2}
	if got := BigFreqUp.Apply(p, c); got.BigFreqIdx != 10 {
		t.Fatalf("BigFreqUp -> %v", got)
	}
	if got := LittleFreqDown.Apply(p, c); got.LittleFreqIdx != 5 {
		t.Fatalf("LittleFreqDown -> %v", got)
	}
	if got := Stay.Apply(p, c); got != c {
		t.Fatalf("Stay changed config")
	}
	// Clamping at the boundary.
	edge := soc.Config{LittleFreqIdx: 0, BigFreqIdx: 0, NLittle: 1, NBig: 0}
	if got := BigFreqDown.Apply(p, edge); got != edge {
		t.Fatalf("boundary action escaped: %v", got)
	}
}

func TestReward(t *testing.T) {
	r := Reward(soc.Result{Energy: 0.2})
	if r != -2 {
		t.Fatalf("reward = %v", r)
	}
	if Reward(soc.Result{Energy: 0.1}) <= Reward(soc.Result{Energy: 0.5}) {
		t.Fatal("lower energy must give higher reward")
	}
}

func TestQTableLearnsActionRanking(t *testing.T) {
	p := soc.NewXU3()
	q := NewQTable(p, 1)
	q.Epsilon = 0
	st := testState(p, soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 1, NBig: 1}, 1)
	// Feed the same state repeatedly: BigFreqDown cheap, BigFreqUp costly.
	for i := 0; i < 60; i++ {
		q.lastState = stateIndex(p, st)
		q.lastAction = BigFreqDown
		q.hasLast = true
		q.Observe(st, st.Config, soc.Result{Energy: 0.05}, st)
		q.lastAction = BigFreqUp
		q.Observe(st, st.Config, soc.Result{Energy: 1.0}, st)
	}
	row := q.Q[stateIndex(p, st)]
	if row[BigFreqDown] <= row[BigFreqUp] {
		t.Fatalf("Q(down)=%v should exceed Q(up)=%v", row[BigFreqDown], row[BigFreqUp])
	}
}

func TestQTableFreqOnlyPinsCores(t *testing.T) {
	p := soc.NewXU3()
	q := NewQTable(p, 2)
	st := testState(p, soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 4}, 2)
	got := q.Decide(st)
	if got.NLittle != 1 || got.NBig != 2 {
		t.Fatalf("freq-only mode should thread-match cores, got %v", got)
	}
}

func TestQTableAllKnobsMode(t *testing.T) {
	p := soc.NewXU3()
	q := NewQTable(p, 3)
	q.AllKnobs = true
	q.Epsilon = 1 // always explore: exercise every action path
	st := testState(p, soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 2, NBig: 2}, 1)
	seenCoreChange := false
	for i := 0; i < 200; i++ {
		got := q.Decide(st)
		if !p.Valid(got) {
			t.Fatalf("invalid config %v", got)
		}
		if got.NLittle != st.Config.NLittle || got.NBig != st.Config.NBig {
			seenCoreChange = true
		}
	}
	if !seenCoreChange {
		t.Fatal("all-knobs mode never moved a core count")
	}
}

func TestQTableEnergyImprovesWithTraining(t *testing.T) {
	p := soc.NewXU3()
	apps := workload.MiBench(1)[:3]
	for i := range apps {
		apps[i].Snippets = apps[i].Snippets[:25]
	}
	seq := workload.NewSequence(apps...)
	// Start flat out: an untrained greedy policy (all-equal Q rows pick
	// "stay") burns maximum power, so learning has something to fix.
	start := p.MaxPerfConfig()

	fresh := NewQTable(p, 4)
	fresh.Epsilon = 0
	untrained := control.Run(p, seq, fresh, start)

	trained := NewQTable(p, 4)
	for e := 0; e < 6; e++ {
		trained.Epsilon = 0.4 / float64(e+1)
		control.Run(p, seq, trained, start)
	}
	trained.Epsilon = 0
	after := control.Run(p, seq, trained, start)
	if after.Energy >= untrained.Energy {
		t.Fatalf("training did not reduce energy: %v -> %v", untrained.Energy, after.Energy)
	}
}
