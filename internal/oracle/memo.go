package oracle

import (
	"fmt"

	"socrm/internal/memo"
	"socrm/internal/snap"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// labelsVersion is the oracle's cache version tag. Bump it whenever the
// sweep semantics change (objective math, Execute model, label layout):
// old on-disk and in-memory entries then simply stop matching.
const labelsVersion = "oracle-labels-v1"

// Canonical objective names used for content keying. An Objective is a
// func value and cannot be hashed; the name is the key-able identity, so
// memoization is only active for oracles built via NewNamed (or with
// ObjName set explicitly and truthfully).
const (
	ObjEnergy = "energy"
	ObjEDP    = "edp"
)

// Objectives maps canonical names to objective functions.
var Objectives = map[string]Objective{
	ObjEnergy: Energy,
	ObjEDP:    EDP,
}

// NewNamed returns an Oracle for a named objective, ready for memoization
// (attach a cache via the Memo field). Panics on an unknown name — callers
// pass compile-time constants or CLI-validated strings.
func NewNamed(p *soc.Platform, objName string) *Oracle {
	obj, ok := Objectives[objName]
	if !ok {
		panic(fmt.Sprintf("oracle: unknown objective %q (have: %s, %s)", objName, ObjEnergy, ObjEDP))
	}
	o := New(p, obj)
	o.ObjName = objName
	return o
}

// labelKey digests the full content that determines LabelApp's output:
// version tag, every platform parameter, the objective name, and the app's
// complete snippet trace. Worker count is excluded — labels are stored by
// snippet index and independent of parallelism.
func (o *Oracle) labelKey(app workload.Application) memo.Key {
	h := memo.NewHasher()
	h.String(labelsVersion)
	o.P.HashContent(&h)
	h.String(o.ObjName)
	app.HashContent(&h)
	return h.Sum()
}

// labelBytes is the encoded size of one label: four int knobs and twelve
// float64s, eight bytes each. A decoded label count is bounded by the bytes
// left for it, so a hostile length prefix cannot provoke an allocation the
// payload does not back (a disk entry's CRC is no authenticity check).
const labelBytes = 16 * 8

// labelCodec round-trips []Label through snap: per label the four config
// knobs, the three result scalars and the nine Table I counters. All
// fields are written bit-exactly, so a cache hit is indistinguishable from
// a fresh sweep.
type labelCodec struct{}

func (labelCodec) Encode(e *snap.Encoder, v any) {
	labels := v.([]Label)
	e.Int(len(labels))
	for i := range labels {
		l := &labels[i]
		e.Int(l.Cfg.LittleFreqIdx)
		e.Int(l.Cfg.BigFreqIdx)
		e.Int(l.Cfg.NLittle)
		e.Int(l.Cfg.NBig)
		e.F64(l.Res.Time)
		e.F64(l.Res.Energy)
		e.F64(l.Res.AvgPower)
		c := &l.Res.Counters
		e.F64(c.InstructionsRetired)
		e.F64(c.CPUCycles)
		e.F64(c.BranchMissPredPC)
		e.F64(c.L2Misses)
		e.F64(c.DataMemAccess)
		e.F64(c.NoncacheExtMemReq)
		e.F64(c.LittleUtil)
		e.F64(c.BigUtil)
		e.F64(c.ChipPower)
	}
}

func (labelCodec) Decode(d *snap.Decoder) (any, error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/labelBytes {
		return nil, fmt.Errorf("oracle: cached label count %d out of range", n)
	}
	labels := make([]Label, n)
	for i := range labels {
		l := &labels[i]
		l.Cfg.LittleFreqIdx = d.Int()
		l.Cfg.BigFreqIdx = d.Int()
		l.Cfg.NLittle = d.Int()
		l.Cfg.NBig = d.Int()
		l.Res.Time = d.F64()
		l.Res.Energy = d.F64()
		l.Res.AvgPower = d.F64()
		c := &l.Res.Counters
		c.InstructionsRetired = d.F64()
		c.CPUCycles = d.F64()
		c.BranchMissPredPC = d.F64()
		c.L2Misses = d.F64()
		c.DataMemAccess = d.F64()
		c.NoncacheExtMemReq = d.F64()
		c.LittleUtil = d.F64()
		c.BigUtil = d.F64()
		c.ChipPower = d.F64()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return labels, nil
}
