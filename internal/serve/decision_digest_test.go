package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"socrm/internal/il"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// goldenServedDigest is the SHA-256 TestServedDecisionDigest computes. It
// was recorded before the retrain kernel and the candidate sweep were
// restructured, and both must still reproduce it bit for bit.
const goldenServedDigest = "c4d147e7eb495bff4564c203bf8daed32560e6bdf2e8220bc032f74fdfcb2e31"

// TestServedDecisionDigest replays served online-IL sessions end to end:
// each session steps through Session.step, so it decides, observes and
// retrains inline exactly as the daemon's step path does, for a fixed
// number of steps. The digest covers every decided configuration, the
// number of policy retrains, and the final policy weights and online-model
// coefficients. Any change to a decision, to a sample the learner ingests
// or to a floating-point result of its training changes it.
func TestServedDecisionDigest(t *testing.T) {
	const sessions, steps = 6, 480
	p := soc.NewXU3()
	pol, err := TrainBootstrapPolicy(p, 1, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	models := WarmModels(p, 1, 40)
	apps := workload.AllApps(3)

	h := sha256.New()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	putF64s := func(vs []float64) {
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	retrains := 0
	for i := 0; i < sessions; i++ {
		oil := il.NewOnlineILSeeded(p, pol.Clone(), models.Clone(), int64(i+1))
		s := &Session{dec: oil}
		app := apps[i%len(apps)]
		cfg := soc.Config{LittleFreqIdx: len(p.LittleOPPs) / 2, BigFreqIdx: len(p.BigOPPs) / 2, NLittle: 4, NBig: 2}
		for k := 0; k < steps; k++ {
			sn := app.Snippets[k%len(app.Snippets)]
			res := p.Execute(sn, cfg)
			next, err := s.step(p, &StepTelemetry{
				Counters: res.Counters, Config: cfg, Threads: sn.Threads,
				TimeS: res.Time, EnergyJ: res.Energy,
			})
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(next.LittleFreqIdx)<<48 | uint64(next.BigFreqIdx)<<32 | uint64(next.NLittle)<<16 | uint64(next.NBig))
			cfg = next
		}
		retrains += oil.Updates()
		put(uint64(oil.Updates()))
		net := oil.Policy().Net
		for l := range net.W {
			putF64s(net.W[l])
			putF64s(net.B[l])
		}
		putF64s(oil.Models.CPIBig.W)
		putF64s(oil.Models.CPILittle.W)
		putF64s(oil.Models.Power.W)
	}
	if retrains == 0 {
		t.Fatal("no session retrained its policy: the replay does not cover inline training")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenServedDigest {
		t.Fatalf("served decision digest %s (%d retrains), want %s: a decision, an ingested sample or a training result changed", got, retrains, goldenServedDigest)
	}
}
