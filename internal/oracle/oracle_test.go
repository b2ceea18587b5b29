package oracle

import (
	"testing"

	"socrm/internal/soc"
	"socrm/internal/workload"
)

func testSnippet() workload.Snippet {
	return workload.Snippet{
		Instructions: 100e6, MemIntensity: 0.1, L2MissRate: 0.03,
		BranchMPKI: 2, BaseCPI: 1.0, ILPBigBoost: 1.9, Threads: 1,
	}
}

func TestBestIsGlobalMinimum(t *testing.T) {
	p := soc.NewXU3()
	o := New(p, Energy)
	s := testSnippet()
	cfg, res := o.Best(s)
	// Exhaustive re-check.
	for _, c := range p.Configs() {
		if e := p.Execute(s, c).Energy; e < res.Energy {
			t.Fatalf("config %v has energy %v < reported best %v (%v)", c, e, res.Energy, cfg)
		}
	}
}

func TestBestOfSubset(t *testing.T) {
	p := soc.NewXU3()
	o := New(p, Energy)
	s := testSnippet()
	cands := []soc.Config{
		{LittleFreqIdx: 0, BigFreqIdx: 0, NLittle: 1, NBig: 0},
		{LittleFreqIdx: 12, BigFreqIdx: 18, NLittle: 4, NBig: 4},
	}
	cfg, _ := o.bestOf(s, cands)
	if cfg != cands[0] && cfg != cands[1] {
		t.Fatalf("bestOf returned a config outside the candidate set: %v", cfg)
	}
}

func TestLabelAppMatchesBest(t *testing.T) {
	p := soc.NewXU3()
	o := New(p, Energy)
	app := workload.MiBench(1)[0]
	app.Snippets = app.Snippets[:6]
	labels := o.LabelApp(app)
	if len(labels) != 6 {
		t.Fatalf("labels = %d", len(labels))
	}
	for i, l := range labels {
		cfg, res := o.Best(app.Snippets[i])
		if l.Cfg != cfg || l.Res.Energy != res.Energy {
			t.Fatalf("label %d mismatch: %v vs %v", i, l.Cfg, cfg)
		}
	}
}

// EDP minimizes the energy-delay product, the performance-per-watt
// flavored objective Section IV-A1 mentions beside energy.
func EDP(r soc.Result) float64 { return r.Energy * r.Time }

func TestEDPPrefersFasterConfigs(t *testing.T) {
	p := soc.NewXU3()
	s := testSnippet()
	_, eRes := New(p, Energy).Best(s)
	_, dRes := New(p, EDP).Best(s)
	if dRes.Time > eRes.Time {
		t.Fatalf("EDP optimum (%vs) should not be slower than energy optimum (%vs)", dRes.Time, eRes.Time)
	}
}
