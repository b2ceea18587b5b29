package il

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"socrm/internal/control"
	"socrm/internal/oracle"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// trainerFixture builds a deployable online learner (trained policy plus
// warm models) for the queue and sweep tests.
func trainerFixture(t *testing.T) *OnlineIL {
	t.Helper()
	p := soc.NewXU3()
	ds := BuildDataset(p, oracle.New(p, oracle.Energy), shortApps(10))
	pol, err := TrainMLPPolicy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	models := NewOnlineModels(p)
	models.WarmStart(append(shortApps(10), workload.Calibration()), WarmStartConfigs(p))
	return NewOnlineIL(p, pol, models)
}

// queue adds a sample to o's experience queue as Ingest does, without the
// retrain a buffer's worth would start.
func queue(o *OnlineIL, x, y []float64) {
	s := o.enqueue()
	copy(s.X[:], x)
	copy(s.Y[:], y)
}

// TestDecodeRefusesOverfullQueue: a learner retrains the moment its queue
// holds a buffer's worth, so an envelope that queues BufferCap samples or
// more is refused, not truncated.
func TestDecodeRefusesOverfullQueue(t *testing.T) {
	oil := trainerFixture(t)
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < oil.BufferCap-1; i++ {
		queue(oil, x, y)
	}
	var full snap.Encoder
	oil.EncodeStateTo(&full)
	if _, err := DecodeOnlineILState(snap.NewDecoder(full.Bytes()), oil.P); err != nil {
		t.Fatalf("a queue one sample short of a buffer refused: %v", err)
	}
	oil.BufferCap-- // the same samples now fill the buffer the envelope declares
	var over snap.Encoder
	oil.EncodeStateTo(&over)
	if _, err := DecodeOnlineILState(snap.NewDecoder(over.Bytes()), oil.P); err == nil {
		t.Fatal("envelope queueing more samples than the queue holds was accepted")
	}
}

// TestDecodeUnbackedQueueAllocatesLittle: a learner state that declares the
// largest buffer the decoder accepts and the most queued samples it holds,
// but carries no sample bytes, fails to decode without sizing anything
// from the declared count.
func TestDecodeUnbackedQueueAllocatesLittle(t *testing.T) {
	oil := trainerFixture(t)
	oil.BufferCap = maxBufferCap
	var e snap.Encoder
	oil.EncodeStateTo(&e)
	// The state ends with the queue: updates, then the count.
	b := append([]byte(nil), e.Bytes()...)
	binary.LittleEndian.PutUint32(b[len(b)-4:], maxBufferCap-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeOnlineILState(snap.NewDecoder(b), oil.P)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a queue count without sample bytes decoded")
	}
	// Sizing the declared queue up front would take over 136 KB.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
		t.Fatalf("failed decode allocated %d bytes, want under 128 KB", alloc)
	}
}

// TestInlineRetrainTrainsQueueOldestFirst: a learner restored with
// BufferCap-1 queued samples retrains on the next Ingest, on the whole
// queue. It must train on the same samples in the same order as a retrain
// of that queue built by hand, oldest first, and land on the same policy.
func TestInlineRetrainTrainsQueueOldestFirst(t *testing.T) {
	src := trainerFixture(t)
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	var want []Sample
	for i := 0; i < src.BufferCap-1; i++ {
		x[0], y[0] = float64(i), float64(i%5)/4
		queue(src, x, y)
		want = append(want, src.queue[len(src.queue)-1])
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
	inline.Ingest(x, y)
	var last Sample
	copy(last.X[:], x)
	copy(last.Y[:], y)
	ref.queue = append(want, last)
	ref.retrain()
	if inline.Updates() != 1 || ref.Updates() != 1 || inline.Buffered() != 0 {
		t.Fatalf("updates %d/%d, inline queue %d; want one retrain each and an empty queue",
			inline.Updates(), ref.Updates(), inline.Buffered())
	}
	trained := func(o *OnlineIL) []byte {
		var e snap.Encoder
		o.Policy().EncodeTo(&e)
		o.Policy().Net.EncodeMomentumTo(&e)
		return e.Bytes()
	}
	if !bytes.Equal(trained(inline), trained(ref)) {
		t.Fatal("inline retrain differs from the retrain of the queue built by hand, oldest first")
	}
}
