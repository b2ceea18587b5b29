package il

import (
	"fmt"
	"math"

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

// encodeTrainerState writes the trainer's wire shape: how many incremental
// updates have been published (the per-update seed schedule depends on it),
// how many samples backpressure has shed, and every sample queued but not
// yet trained on, oldest first.
func encodeTrainerState(e *snap.Encoder, t *Trainer) {
	e.I64(t.updates)
	e.U64(t.dropped)
	e.U32(uint32(t.n))
	for i := 0; i < t.n; i++ {
		j := t.start + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		e.F64s(t.ring[j].X[:])
		e.F64s(t.ring[j].Y[:])
	}
}

// decodeTrainerState restores the wire shape into a fresh trainer. The
// samples are queued without retraining, even a buffer's worth or more
// (the next Ingest retrains on all of them), and an envelope queueing more
// than the ring holds is refused.
func decodeTrainerState(d *snap.Decoder, t *Trainer) error {
	updates := d.I64()
	dropped := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if updates < 0 {
		return fmt.Errorf("il: decoded update count %d negative", updates)
	}
	if limit := ringBuffers * t.o.BufferCap; n > limit {
		return fmt.Errorf("il: decoded %d queued samples, the experience queue holds %d", n, limit)
	}
	t.updates = updates
	t.dropped = dropped
	for i := 0; i < n; i++ {
		s := t.slot()
		d.F64sInto(s.X[:])
		d.F64sInto(s.Y[:])
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
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
	o.pol.EncodeTo(e)
	o.Models.EncodeTo(e)
	encodeTrainerState(e, o.trainer)
}

// DecodeOnlineILState reconstructs a learner written by EncodeStateTo.
func DecodeOnlineILState(d *snap.Decoder, p *soc.Platform) (*OnlineIL, error) {
	radius := d.Int()
	bufferCap := d.Int()
	epochs := d.Int()
	lr := d.F64()
	momentum := d.F64()
	warmup := d.Int()
	seed := d.I64()
	decisions := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if radius <= 0 || bufferCap <= 0 || bufferCap > math.MaxInt/ringBuffers || epochs < 0 || warmup < 0 || decisions < 0 {
		return nil, fmt.Errorf("il: decoded hyperparameters invalid (radius %d, buffer %d, epochs %d, warmup %d, decisions %d)",
			radius, bufferCap, epochs, warmup, decisions)
	}
	pol, err := DecodeMLPPolicy(d, p)
	if err != nil {
		return nil, err
	}
	models, err := DecodeOnlineModels(d, p)
	if err != nil {
		return nil, err
	}
	o := NewOnlineILSeeded(p, pol, models, seed)
	o.Radius = radius
	o.BufferCap = bufferCap
	o.Epochs = epochs
	o.LR = lr
	o.Momentum = momentum
	o.Warmup = warmup
	o.decisions = decisions
	if err := decodeTrainerState(d, o.trainer); err != nil {
		return nil, err
	}
	return o, nil
}
