package il

import (
	"fmt"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/rls"
	"socrm/internal/snap"
	"socrm/internal/soc"
)

// This file is the learner half of session snapshot/migration: every piece
// of per-session learning state — the policy network, the optimizer momentum
// of a learner that trains it, the adaptive RLS models with their
// covariances, and the learner's queued-but-not-yet-trained experience —
// encodes to a deterministic binary layout and decodes back into a learner
// that continues the exact decision/update trajectory of the source. The
// layout carries state only: the update schedule, warmup and intercept gain
// are constants every learner runs, so they are not written. The serving
// layer wraps this in its versioned session envelope.

// EncodeTo writes the policy: its scaler, then the network's shape, weights
// and biases. It is the payload of a policy file and of an offline-il
// envelope; neither trains, so no momentum is written.
func (m *MLPPolicy) EncodeTo(e *snap.Encoder) {
	e.F64s(m.Scaler.Mean)
	e.F64s(m.Scaler.Std)
	m.Net.EncodeTo(e)
}

// DecodeMLPPolicy reconstructs a policy written by MLPPolicy.EncodeTo, with
// zero momentum, and binds it to the platform. It refuses any shape the first PredictConfig
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
// the deployment-adaptation switch.
func (m *OnlineModels) EncodeTo(e *snap.Encoder) {
	m.CPIBig.EncodeTo(e)
	m.CPILittle.EncodeTo(e)
	m.Power.EncodeTo(e)
	e.Bool(m.AdaptInterceptOnly)
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
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeQueue writes the experience queue: how many incremental updates
// have been published (the per-update seed schedule depends on it) and
// every sample queued but not yet trained on, oldest first.
func (o *OnlineIL) encodeQueue(e *snap.Encoder) {
	e.I64(o.updates)
	e.U32(uint32(len(o.queue)))
	for i := range o.queue {
		e.F64s(o.queue[i].X[:])
		e.F64s(o.queue[i].Y[:])
	}
}

// decodeQueue restores the queue into a fresh learner. A learner retrains
// the moment it queues a buffer's worth, so a queue of BufferCap samples or
// more is refused. The queue grows one sample at a time, so a declared
// count the bytes do not back allocates nothing up front.
func (o *OnlineIL) decodeQueue(d *snap.Decoder) error {
	updates := d.I64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if updates < 0 {
		return fmt.Errorf("il: decoded update count %d negative", updates)
	}
	if n >= o.BufferCap {
		return fmt.Errorf("il: decoded %d queued samples, a buffer of %d retrains at %d", n, o.BufferCap, o.BufferCap)
	}
	o.updates = updates
	for i := 0; i < n; i++ {
		s := o.enqueue()
		d.F64sInto(s.X[:])
		d.F64sInto(s.Y[:])
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}

// EncodeStateTo writes the learner's complete state: neighborhood radius and
// buffer size, training seed, the decision count (warmup gating), the
// policy and its momentum, the adaptive models and the experience queue.
func (o *OnlineIL) EncodeStateTo(e *snap.Encoder) {
	e.Int(o.Radius)
	e.Int(o.BufferCap)
	e.I64(o.Seed)
	e.Int(o.decisions)
	o.pol.EncodeTo(e)
	o.pol.Net.EncodeMomentumTo(e)
	o.Models.EncodeTo(e)
	o.encodeQueue(e)
}

// maxBufferCap bounds the buffer an imported learner may declare: a learner
// retrains only once its buffer fills, so a huge one would queue every
// sample and never retrain. Callers set 8 (serving) up to 64 (ablations).
const maxBufferCap = 1024

// DecodeOnlineILState reconstructs a learner written by EncodeStateTo. It
// refuses a buffer past maxBufferCap.
func DecodeOnlineILState(d *snap.Decoder, p *soc.Platform) (*OnlineIL, error) {
	radius := d.Int()
	bufferCap := d.Int()
	seed := d.I64()
	decisions := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if radius <= 0 || bufferCap <= 0 || bufferCap > maxBufferCap || decisions < 0 {
		return nil, fmt.Errorf("il: decoded hyperparameters invalid (radius %d, buffer %d, decisions %d)",
			radius, bufferCap, decisions)
	}
	pol, err := DecodeMLPPolicy(d, p)
	if err != nil {
		return nil, err
	}
	if err := pol.Net.DecodeMomentum(d); err != nil {
		return nil, err
	}
	models, err := DecodeOnlineModels(d, p)
	if err != nil {
		return nil, err
	}
	o := NewOnlineILSeeded(p, pol, models, seed)
	o.Radius = radius
	o.BufferCap = bufferCap
	o.decisions = decisions
	if err := o.decodeQueue(d); err != nil {
		return nil, err
	}
	return o, nil
}
