package il

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"socrm/internal/control"
	"socrm/internal/oracle"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// trainerFixture builds a deployable online learner (trained policy plus
// warm models) for the async-pipeline tests.
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

// findAggState drives real workload traces through the learner until a
// decision aggregates a sample (the candidate argmin is interior), then
// returns that state with the queue drained. Because the online models are
// left untouched afterwards, re-deciding the returned state aggregates
// again every time — a deterministic ingest scenario for the tests below.
func findAggState(t *testing.T, oil *OnlineIL, tr *Trainer) control.State {
	t.Helper()
	p := oil.P
	for _, app := range shortApps(6) {
		cfg := p.Clamp(soc.Config{LittleFreqIdx: 4, BigFreqIdx: 6, NLittle: 4, NBig: 2})
		for _, sn := range app.Snippets {
			st := stateFor(p, sn, cfg)
			before := tr.Buffered()
			next := p.Clamp(oil.Decide(st))
			if tr.Buffered() > before {
				tr.Drain()
				return st
			}
			oil.Models.Update(st)
			cfg = next
		}
	}
	t.Fatal("no aggregating state found; the probe set needs widening")
	return control.State{}
}

// TestAsyncIngestDropOldest pins the backpressure contract of the
// experience queue: bounded, drop-oldest, counted, never blocking.
func TestAsyncIngestDropOldest(t *testing.T) {
	p := soc.NewXU3()
	oil := NewOnlineIL(p, &MLPPolicy{P: p}, NewOnlineModels(p))
	oil.BufferCap = 1 // a ring of four aggregation buffers: 4 slots
	tr := oil.AsyncMode()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 10; i++ {
		x[0], y[0] = float64(i), float64(100+i)
		tr.Ingest(x, y)
	}
	if tr.Buffered() != 4 {
		t.Fatalf("Buffered() = %d after overfilling a 4-slot queue, want 4", tr.Buffered())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
	batch := tr.Drain()
	if len(batch) != 4 {
		t.Fatalf("Drain() returned %d samples, want 4", len(batch))
	}
	for j, s := range batch {
		if want := float64(6 + j); s.X[0] != want || s.Y[0] != 100+want {
			t.Fatalf("slot %d holds sample %v/%v, want the 4 newest in order (x=%v)", j, s.X[0], s.Y[0], want)
		}
	}
	if tr.Buffered() != 0 {
		t.Fatalf("Buffered() = %d after Drain, want 0", tr.Buffered())
	}
	if d := tr.TakeDropped(); d != 6 {
		t.Fatalf("TakeDropped() = %d, want 6", d)
	}
	if d := tr.TakeDropped(); d != 0 {
		t.Fatalf("TakeDropped() did not reset the counter (second take = %d)", d)
	}
}

// TestAsyncModeDefaults pins the trainer's modes and queue size: a fresh
// learner trains inline, AsyncMode detaches the learner's own trainer, and
// the queue holds four aggregation buffers.
func TestAsyncModeDefaults(t *testing.T) {
	p := soc.NewXU3()
	oil := NewOnlineIL(p, &MLPPolicy{P: p}, NewOnlineModels(p))
	if oil.Trainer().detached {
		t.Fatal("fresh learner's trainer is detached, want inline")
	}
	tr := oil.AsyncMode()
	if tr != oil.Trainer() || !tr.detached {
		t.Fatal("AsyncMode did not detach the learner's own trainer")
	}
	if tr.Ready() {
		t.Fatal("empty trainer reports Ready")
	}
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 5*oil.BufferCap; i++ {
		tr.Ingest(x, y)
	}
	if tr.Buffered() != 4*oil.BufferCap || tr.Dropped() != uint64(oil.BufferCap) {
		t.Fatalf("after %d samples: buffered %d, dropped %d; want %d and %d",
			5*oil.BufferCap, tr.Buffered(), tr.Dropped(), 4*oil.BufferCap, oil.BufferCap)
	}
	if !tr.Ready() {
		t.Fatal("full queue does not report Ready")
	}
}

// TestAsyncNeverTrainsInline is the tentpole's core contract: in async
// mode, Decide only queues — however full the buffer gets, no policy
// update happens on the decide path, and the snapshot only changes when a
// worker publishes one via Drain/TrainOn.
func TestAsyncNeverTrainsInline(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	st := findAggState(t, oil, tr)
	for i := 0; i < 3*oil.BufferCap && !tr.Ready(); i++ {
		oil.Decide(st)
	}
	if !tr.Ready() {
		t.Fatal("aggregating state stopped aggregating; fixture broken")
	}
	if oil.Updates() != 0 {
		t.Fatalf("decide path performed %d policy updates in async mode, want 0", oil.Updates())
	}
	pol0 := oil.Policy()
	tr.TrainOn(tr.Drain(), nil)
	if oil.Policy() == pol0 {
		t.Fatal("TrainOn did not publish a new policy snapshot")
	}
	if oil.Updates() != 1 {
		t.Fatalf("Updates() = %d after one background retrain, want 1", oil.Updates())
	}
	// The retired snapshot must be untouched (copy-on-write, not in-place):
	// a decide that loaded it mid-swap would otherwise see torn weights.
	x := st.Features(oil.P)
	if pol0.PredictConfig(x) != pol0.PredictConfig(x) {
		t.Fatal("retired snapshot is unstable")
	}
	if oil.Policy() == pol0 {
		t.Fatal("snapshot still aliased after retrain")
	}
	oil.Decide(st) // the decide path keeps working against the new snapshot
}

// TestAsyncCrossSessionExtras checks that TrainOn folds cross-session
// samples into the update: training on extras alone must still move the
// published policy.
func TestAsyncCrossSessionExtras(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	st := findAggState(t, oil, tr)
	oil.Decide(st)
	own := tr.Drain()
	if len(own) == 0 {
		t.Fatal("probe state did not aggregate")
	}
	extras := make([]Sample, 4)
	for i := range extras {
		extras[i] = own[0]
	}
	pol0 := oil.Policy()
	tr.TrainOn(nil, extras)
	if oil.Policy() == pol0 || oil.Updates() != 1 {
		t.Fatalf("extras-only retrain did not publish (updates=%d)", oil.Updates())
	}
	tr.TrainOn(nil, nil)
	if oil.Updates() != 1 {
		t.Fatal("empty retrain must be a no-op")
	}
}

// TestAsyncDecideConcurrentWithTraining is the -race soak for the snapshot
// swap: one goroutine decides and exports continuously while another drains
// and retrains, so the detector checks the immutability argument — Clone
// reads only weights, Predict writes only per-snapshot scratch, and the
// atomic pointer publishes the handoff — and the trainer lock that orders
// an export against the publish.
func TestAsyncDecideConcurrentWithTraining(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	st := findAggState(t, oil, tr)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if tr.Ready() {
				tr.TrainOn(tr.Drain(), nil)
			} else {
				runtime.Gosched()
			}
		}
	}()
	decides := 1200
	if testing.Short() {
		decides = 200
	}
	last := -1
	for i := 0; i < decides; i++ {
		oil.Decide(st)
		if i%8 != 0 {
			continue
		}
		// An export races the worker's publish: it must decode, and its
		// update count must never go backwards.
		var e snap.Encoder
		oil.EncodeStateTo(&e)
		o, err := DecodeOnlineILState(snap.NewDecoder(e.Bytes()), oil.P)
		if err != nil {
			t.Errorf("decide %d: export taken during training does not decode: %v", i, err)
			break
		}
		if o.Updates() < last {
			t.Errorf("decide %d: export shows %d updates after one with %d", i, o.Updates(), last)
			break
		}
		last = o.Updates()
	}
	close(stop)
	wg.Wait()
	if tr.Updates() == 0 {
		t.Fatal("background trainer never swapped a policy mid-flight; the soak proved nothing")
	}
	if tr.Buffered() > 0 {
		tr.TrainOn(tr.Drain(), nil)
	}
}

// TestTrainerModesAgree: an inline learner and a detached one whose queue
// is drained and trained the moment it is Ready, both started from the same
// policy, models and seed, make the same decisions and after every one hold
// the same policy (weights, biases and momentum), update count and trainer
// state, over several retrains. A detached retrain is the inline retrain
// run on a copy.
func TestTrainerModesAgree(t *testing.T) {
	base := trainerFixture(t)
	p := base.P
	inline := NewOnlineIL(p, base.Policy().Clone(), base.Models.Clone())
	detached := NewOnlineIL(p, base.Policy().Clone(), base.Models.Clone())
	tr := detached.AsyncMode()
	encode := func(f func(*snap.Encoder)) []byte {
		var e snap.Encoder
		f(&e)
		return e.Bytes()
	}
	trainerState := func(o *OnlineIL) func(*snap.Encoder) {
		return func(e *snap.Encoder) { encodeTrainerState(e, o.trainer) }
	}
	for _, app := range shortApps(40) {
		cfg := p.Clamp(soc.Config{LittleFreqIdx: 4, BigFreqIdx: 6, NLittle: 4, NBig: 2})
		for i, sn := range app.Snippets {
			st := stateFor(p, sn, cfg)
			got, want := detached.Decide(st), inline.Decide(st)
			if tr.Ready() {
				tr.TrainOn(tr.Drain(), nil)
			}
			if got != want {
				t.Fatalf("%s snippet %d: detached decided %+v, inline %+v", app.Name, i, got, want)
			}
			if detached.Updates() != inline.Updates() {
				t.Fatalf("%s snippet %d: detached at %d updates, inline at %d", app.Name, i, detached.Updates(), inline.Updates())
			}
			if !bytes.Equal(encode(detached.Policy().EncodeTo), encode(inline.Policy().EncodeTo)) {
				t.Fatalf("%s snippet %d: policies differ after %d updates", app.Name, i, inline.Updates())
			}
			if !bytes.Equal(encode(trainerState(detached)), encode(trainerState(inline))) {
				t.Fatalf("%s snippet %d: trainer states differ", app.Name, i)
			}
			detached.Models.Update(st)
			inline.Models.Update(st)
			cfg = p.Clamp(want)
		}
	}
	if !bytes.Equal(encode(detached.EncodeStateTo), encode(inline.EncodeStateTo)) {
		t.Fatal("exported learner states differ")
	}
	if inline.Updates() < 3 {
		t.Fatalf("only %d retrains; the comparison needs at least 3", inline.Updates())
	}
	t.Logf("%d retrains, %d samples queued at the end", inline.Updates(), inline.Trainer().Buffered())
}

// TestDecodeRefusesOverfullQueue: an envelope that queues more samples than
// the ring of four aggregation buffers holds is refused, not truncated.
func TestDecodeRefusesOverfullQueue(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 4*oil.BufferCap; i++ {
		tr.Ingest(x, y)
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

// TestInlineRetrainReadsWrappedRing: an inline learner restored with a full
// queue drops its oldest sample on the next Ingest, and its retrain then
// reads the wrapped ring in place. It must train on what a detached twin
// drains — the same samples in the same order — and land on the same
// policy.
func TestInlineRetrainReadsWrappedRing(t *testing.T) {
	src := trainerFixture(t)
	tr := src.AsyncMode()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < 4*src.BufferCap; i++ {
		x[0], y[0] = float64(i), float64(i%5)/4
		tr.Ingest(x, y)
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
	inline, detached := restore(), restore()
	dtr := detached.AsyncMode()
	x[0], y[0] = -1, 1
	inline.Trainer().Ingest(x, y)
	dtr.Ingest(x, y)
	dtr.TrainOn(dtr.Drain(), nil)
	if inline.Updates() != 1 || detached.Updates() != 1 || inline.Trainer().Buffered() != 0 {
		t.Fatalf("updates %d/%d, inline queue %d; want one retrain each and an empty queue",
			inline.Updates(), detached.Updates(), inline.Trainer().Buffered())
	}
	var a, b snap.Encoder
	inline.Policy().EncodeTo(&a)
	detached.Policy().EncodeTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("inline retrain over the wrapped ring differs from the detached retrain of the drained queue")
	}
}

// TestExportBetweenDrainAndTrainOn exports a detached learner while its
// retrain is in flight, between Drain and TrainOn. The envelope must be the
// one taken before Drain (old policy, old update count, every drained
// sample still queued), and restoring it and retraining must land on the
// state the live learner publishes.
func TestExportBetweenDrainAndTrainOn(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	for i := 0; i < oil.BufferCap+3; i++ {
		x[0], y[0] = float64(i), float64(i%5)/4
		tr.Ingest(x, y)
	}
	export := func(o *OnlineIL) []byte {
		var e snap.Encoder
		o.EncodeStateTo(&e)
		return e.Bytes()
	}
	before := export(oil)
	batch := tr.Drain()
	if during := export(oil); !bytes.Equal(during, before) {
		t.Fatal("an export between Drain and TrainOn differs from the one before Drain")
	}
	// Samples queued during the retrain go behind the drained batch.
	x[0], y[0] = -1, 1
	tr.Ingest(x, y)
	during := export(oil)
	tr.TrainOn(batch, nil)
	after := export(oil)

	restored, err := DecodeOnlineILState(snap.NewDecoder(during), oil.P)
	if err != nil {
		t.Fatal(err)
	}
	rtr := restored.AsyncMode()
	if restored.Updates() != 0 || rtr.Buffered() != len(batch)+1 {
		t.Fatalf("restored mid-retrain envelope: %d updates and %d queued, want 0 and %d", restored.Updates(), rtr.Buffered(), len(batch)+1)
	}
	// Retrain on what the live learner drained, leaving the newer sample queued.
	own := rtr.Drain()
	for _, s := range own[len(batch):] {
		rtr.Ingest(s.X[:], s.Y[:])
	}
	rtr.TrainOn(own[:len(batch)], nil)
	if !bytes.Equal(export(restored), after) {
		t.Fatal("restoring the mid-retrain envelope and retraining does not reproduce the published state")
	}
}

// TestExportMidRetrainKeepsRingCapacity: a drained batch plus a ring that
// refilled during the retrain can pass the ring's capacity. The export then
// writes the batch's oldest samples as dropped, so the envelope still
// imports.
func TestExportMidRetrainKeepsRingCapacity(t *testing.T) {
	oil := trainerFixture(t)
	tr := oil.AsyncMode()
	x := make([]float64, control.NumFeatures)
	y := make([]float64, soc.NumConfigFeatures)
	limit := 4 * oil.BufferCap
	for i := 0; i < oil.BufferCap; i++ {
		tr.Ingest(x, y)
	}
	tr.Drain()
	for i := 0; i < limit; i++ {
		tr.Ingest(x, y)
	}
	var e snap.Encoder
	oil.EncodeStateTo(&e)
	restored, err := DecodeOnlineILState(snap.NewDecoder(e.Bytes()), oil.P)
	if err != nil {
		t.Fatalf("mid-retrain envelope refused: %v", err)
	}
	if got := restored.Trainer().Buffered(); got != limit {
		t.Fatalf("restored queue holds %d samples, want %d", got, limit)
	}
	if got := restored.Trainer().Dropped(); got != uint64(oil.BufferCap) {
		t.Fatalf("restored dropped count %d, want %d", got, oil.BufferCap)
	}
}
