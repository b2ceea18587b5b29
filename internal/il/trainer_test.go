package il

import (
	"bytes"
	"testing"

	"socrm/internal/control"
	"socrm/internal/oracle"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// trainerFixture builds a deployable online learner (trained policy plus
// warm models) for the trainer and sweep tests.
func trainerFixture(t *testing.T) *OnlineIL {
	t.Helper()
	p := soc.NewXU3()
	ds := BuildDataset(p, oracle.New(p, oracle.Energy), shortApps(10))
	pol, err := TrainMLPPolicy(p, ds, DefaultMLPOptions())
	if err != nil {
		t.Fatal(err)
	}
	models := NewOnlineModels(p)
	models.WarmStart(append(shortApps(10), workload.Calibration()), WarmStartConfigs(p))
	return NewOnlineIL(p, pol, models)
}

// queue adds a sample to t's ring as Ingest does, without the retrain a
// buffer's worth would start: the queue an envelope from a daemon that
// trained in the background may hold.
func queue(t *Trainer, x, y []float64) {
	s := t.slot()
	copy(s.X[:], x)
	copy(s.Y[:], y)
}

// TestDecodeRefusesOverfullQueue: an envelope that queues more samples than
// the ring of four aggregation buffers holds is refused, not truncated.
func TestDecodeRefusesOverfullQueue(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.Trainer()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 4*oil.BufferCap; i++ {
		queue(tr, x, y)
	}
	var full snap.Encoder
	oil.EncodeStateTo(&full)
	if _, err := DecodeOnlineILState(snap.NewDecoder(full.Bytes()), oil.P); err != nil {
		t.Fatalf("full queue refused: %v", err)
	}
	oil.BufferCap-- // the same samples now overfill the ring the envelope declares
	var over snap.Encoder
	oil.EncodeStateTo(&over)
	if _, err := DecodeOnlineILState(snap.NewDecoder(over.Bytes()), oil.P); err == nil {
		t.Fatal("envelope queueing more samples than the ring holds was accepted")
	}
}

// TestInlineRetrainReadsWrappedRing: a learner restored with a full queue
// drops its oldest sample on the next Ingest, and its retrain then reads
// the wrapped ring in place. It must train on the same samples in the same
// order as a retrain of the queue copied out oldest first, and land on the
// same policy.
func TestInlineRetrainReadsWrappedRing(t *testing.T) {
	src := trainerFixture(t)
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 4*src.BufferCap; i++ {
		x[0], y[0] = float64(i), float64(i%5)/4
		queue(src.trainer, x, y)
	}
	var e snap.Encoder
	src.EncodeStateTo(&e)
	restore := func() *OnlineIL {
		o, err := DecodeOnlineILState(snap.NewDecoder(e.Bytes()), src.P)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	inline, ref := restore(), restore()
	x[0], y[0] = -1, 1
	inline.Trainer().Ingest(x, y)
	rt := ref.trainer
	queue(rt, x, y)
	if rt.start == 0 {
		t.Fatal("the reference ring did not wrap; the test no longer covers the wrapped read")
	}
	copied := make([]Sample, rt.n)
	for i := range copied {
		copied[i] = rt.ring[(rt.start+i)%len(rt.ring)]
	}
	rt.retrain(copied, nil)
	if inline.Updates() != 1 || ref.Updates() != 1 || inline.Trainer().Buffered() != 0 || inline.trainer.dropped != 1 {
		t.Fatalf("updates %d/%d, inline queue %d, dropped %d; want one retrain each, an empty queue and one drop",
			inline.Updates(), ref.Updates(), inline.Trainer().Buffered(), inline.trainer.dropped)
	}
	var a, b snap.Encoder
	inline.Policy().EncodeTo(&a)
	ref.Policy().EncodeTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("inline retrain over the wrapped ring differs from the retrain of the queue copied out in order")
	}
}
