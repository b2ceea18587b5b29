package il

import (
	"fmt"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/regtree"
	"socrm/internal/rls"
	"socrm/internal/snap"
	"socrm/internal/soc"
)

// This file is the learner half of session snapshot/migration: every piece
// of per-session learning state — the policy network with its optimizer
// momentum, the adaptive RLS models with their covariances, and the
// trainer's buffered-but-not-yet-trained experience — encodes to a
// deterministic binary layout and decodes back into a learner that
// continues the exact decision/update trajectory of the source. The serving
// layer wraps this in its versioned session envelope.

// EncodeTo writes the policy (scaler + full network state including
// momentum) for migration.
func (m *MLPPolicy) EncodeTo(e *snap.Encoder) {
	e.F64s(m.Scaler.Mean)
	e.F64s(m.Scaler.Std)
	m.Net.EncodeTo(e)
}

// DecodeMLPPolicy reconstructs a policy written by MLPPolicy.EncodeTo and
// binds it to the platform. It refuses any shape the first PredictConfig
// could not run: a network that does not map control.NumFeatures inputs to
// soc.NumConfigFeatures outputs, or a scaler of another width.
func DecodeMLPPolicy(d *snap.Decoder, p *soc.Platform) (*MLPPolicy, error) {
	sc, err := decodeScaler(d)
	if err != nil {
		return nil, err
	}
	net, err := mlp.DecodeNetwork(d)
	if err != nil {
		return nil, err
	}
	if in, out := net.Sizes[0], net.Sizes[len(net.Sizes)-1]; in != control.NumFeatures || out != soc.NumConfigFeatures {
		return nil, fmt.Errorf("il: decoded network maps %d inputs to %d outputs, want %d to %d",
			in, out, control.NumFeatures, soc.NumConfigFeatures)
	}
	return &MLPPolicy{Net: net, Scaler: sc, P: p}, nil
}

// EncodeTo writes the tree policy (scaler + forest) bit-exactly, so a
// decoded policy is indistinguishable from the freshly fitted one.
func (t *TreePolicy) EncodeTo(e *snap.Encoder) {
	e.F64s(t.Scaler.Mean)
	e.F64s(t.Scaler.Std)
	t.Forest.EncodeTo(e)
}

// DecodeTreePolicy reconstructs a policy written by TreePolicy.EncodeTo
// and binds it to the platform. It refuses a forest without one tree per
// config feature, a split on a feature past control.NumFeatures, or a
// scaler of another width.
func DecodeTreePolicy(d *snap.Decoder, p *soc.Platform) (*TreePolicy, error) {
	sc, err := decodeScaler(d)
	if err != nil {
		return nil, err
	}
	forest, err := regtree.DecodeForest(d)
	if err != nil {
		return nil, err
	}
	if n, f := len(forest.Trees), forest.MaxFeature(); n != soc.NumConfigFeatures || f >= control.NumFeatures {
		return nil, fmt.Errorf("il: decoded forest has %d trees splitting on features up to %d, want %d trees and features below %d",
			n, f, soc.NumConfigFeatures, control.NumFeatures)
	}
	return &TreePolicy{Forest: forest, Scaler: sc, P: p}, nil
}

// decodeScaler reads a policy's feature scaler: empty (the identity) or one
// mean and one std per feature.
func decodeScaler(d *snap.Decoder) (*counters.Scaler, error) {
	sc := &counters.Scaler{Mean: d.F64s(), Std: d.F64s()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n := len(sc.Mean); n != len(sc.Std) || (n != 0 && n != control.NumFeatures) {
		return nil, fmt.Errorf("il: decoded scaler has %d means, %d stds, want 0 or %d of each",
			n, len(sc.Std), control.NumFeatures)
	}
	return sc, nil
}

// EncodeTo writes the adaptive model state: the three RLS estimators plus
// the deployment-adaptation switches.
func (m *OnlineModels) EncodeTo(e *snap.Encoder) {
	m.CPIBig.EncodeTo(e)
	m.CPILittle.EncodeTo(e)
	m.Power.EncodeTo(e)
	e.Bool(m.AdaptInterceptOnly)
	e.F64(m.InterceptGain)
}

// DecodeOnlineModels reconstructs models written by OnlineModels.EncodeTo.
func DecodeOnlineModels(d *snap.Decoder, p *soc.Platform) (*OnlineModels, error) {
	cpiBig, err := rls.DecodeRLS(d)
	if err != nil {
		return nil, fmt.Errorf("il: CPI-big model: %w", err)
	}
	cpiLittle, err := rls.DecodeRLS(d)
	if err != nil {
		return nil, fmt.Errorf("il: CPI-little model: %w", err)
	}
	power, err := rls.DecodeRLS(d)
	if err != nil {
		return nil, fmt.Errorf("il: power model: %w", err)
	}
	if cpiBig.Dim() != cpiDim || cpiLittle.Dim() != cpiDim || power.Dim() != powerDim {
		return nil, fmt.Errorf("il: decoded model dims %d/%d/%d, want %d/%d/%d",
			cpiBig.Dim(), cpiLittle.Dim(), power.Dim(), cpiDim, cpiDim, powerDim)
	}
	m := &OnlineModels{
		P:                  p,
		CPIBig:             cpiBig,
		CPILittle:          cpiLittle,
		Power:              power,
		AdaptInterceptOnly: d.Bool(),
		InterceptGain:      d.F64(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// trainerState is the mode-agnostic wire shape of a Trainer: how many
// incremental updates have been published (the per-update seed schedule
// depends on it), how many samples backpressure has shed, and every sample
// buffered but not yet trained on, oldest first. Both trainer kinds export
// into it and restore from it, so a session may migrate between a
// synchronous and an asynchronous backend; same-mode migration is exact.
func encodeTrainerState(e *snap.Encoder, t Trainer) {
	switch tr := t.(type) {
	case *syncTrainer:
		e.I64(int64(tr.updates))
		e.U64(tr.dropped)
		e.U32(uint32(len(tr.bufX)))
		for i := range tr.bufX {
			e.F64s(tr.bufX[i])
			e.F64s(tr.bufY[i])
		}
	case *AsyncTrainer:
		tr.mu.Lock()
		e.I64(tr.updates.Load())
		e.U64(tr.dropped)
		e.U32(uint32(tr.n))
		for i := 0; i < tr.n; i++ {
			j := tr.start + i
			if j >= len(tr.ring) {
				j -= len(tr.ring)
			}
			e.F64s(tr.ring[j].X[:])
			e.F64s(tr.ring[j].Y[:])
		}
		tr.mu.Unlock()
	default:
		// Unknown trainer kinds migrate without buffered experience; the
		// update count still moves so the seed schedule cannot rewind.
		e.I64(int64(t.Updates()))
		e.U64(0)
		e.U32(0)
	}
}

// decodeTrainerState restores the wire shape into the learner's current
// trainer (whatever mode the importing server runs in).
func decodeTrainerState(d *snap.Decoder, o *OnlineIL) error {
	updates := d.I64()
	dropped := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if updates < 0 {
		return fmt.Errorf("il: decoded update count %d negative", updates)
	}
	var x [control.NumFeatures]float64
	var y [soc.NumConfigFeatures]float64
	switch tr := o.trainer.(type) {
	case *syncTrainer:
		tr.updates = int(updates)
		tr.dropped = dropped
		for i := 0; i < n; i++ {
			d.F64sInto(x[:])
			d.F64sInto(y[:])
			if err := d.Err(); err != nil {
				return err
			}
			// Append directly instead of Ingest: a snapshot buffered count at
			// or beyond BufferCap must not fire a retrain during import.
			tr.bufX = growRow(tr.bufX)
			tr.bufX[len(tr.bufX)-1] = append(tr.bufX[len(tr.bufX)-1][:0], x[:]...)
			tr.bufY = growRow(tr.bufY)
			tr.bufY[len(tr.bufY)-1] = append(tr.bufY[len(tr.bufY)-1][:0], y[:]...)
		}
	case *AsyncTrainer:
		tr.updates.Store(updates)
		for i := 0; i < n; i++ {
			d.F64sInto(x[:])
			d.F64sInto(y[:])
			if err := d.Err(); err != nil {
				return err
			}
			tr.Ingest(x[:], y[:])
		}
		// The source's shed count carries over on top of anything Ingest
		// itself dropped refilling a smaller ring.
		tr.mu.Lock()
		tr.dropped += dropped
		tr.mu.Unlock()
	default:
		return fmt.Errorf("il: cannot restore trainer state into %T", o.trainer)
	}
	return d.Err()
}

// EncodeStateTo writes the learner's complete state: hyperparameters, the
// decision count (warmup gating), the policy snapshot, the adaptive models
// and the trainer.
func (o *OnlineIL) EncodeStateTo(e *snap.Encoder) {
	e.Int(o.Radius)
	e.Int(o.BufferCap)
	e.Int(o.Epochs)
	e.F64(o.LR)
	e.F64(o.Momentum)
	e.Int(o.Warmup)
	e.I64(o.Seed)
	e.Int(o.decisions)
	o.pol.Load().EncodeTo(e)
	o.Models.EncodeTo(e)
	encodeTrainerState(e, o.trainer)
}

// DecodeOnlineILState reconstructs a learner written by EncodeStateTo.
// asyncQueueCap selects the importing server's training mode: negative
// keeps the historical synchronous pipeline (trainer returned nil), zero or
// positive detaches training (AsyncMode with that queue capacity, 0 =
// default sizing) and returns the trainer a background worker must drain.
func DecodeOnlineILState(d *snap.Decoder, p *soc.Platform, asyncQueueCap int) (*OnlineIL, *AsyncTrainer, error) {
	radius := d.Int()
	bufferCap := d.Int()
	epochs := d.Int()
	lr := d.F64()
	momentum := d.F64()
	warmup := d.Int()
	seed := d.I64()
	decisions := d.Int()
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if radius <= 0 || bufferCap <= 0 || epochs < 0 || warmup < 0 || decisions < 0 {
		return nil, nil, fmt.Errorf("il: decoded hyperparameters invalid (radius %d, buffer %d, epochs %d, warmup %d, decisions %d)",
			radius, bufferCap, epochs, warmup, decisions)
	}
	pol, err := DecodeMLPPolicy(d, p)
	if err != nil {
		return nil, nil, err
	}
	models, err := DecodeOnlineModels(d, p)
	if err != nil {
		return nil, nil, err
	}
	o := NewOnlineILSeeded(p, pol, models, seed)
	o.Radius = radius
	o.BufferCap = bufferCap
	o.Epochs = epochs
	o.LR = lr
	o.Momentum = momentum
	o.Warmup = warmup
	o.decisions = decisions
	var async *AsyncTrainer
	if asyncQueueCap >= 0 {
		async = o.AsyncMode(asyncQueueCap)
	}
	if err := decodeTrainerState(d, o); err != nil {
		return nil, nil, err
	}
	return o, async, nil
}
