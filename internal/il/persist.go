package il

import (
	"fmt"
	"io"

	"socrm/internal/snap"
	"socrm/internal/soc"
)

// A policy file is what the offline training flow ships to the on-device
// governor. It is a small binary envelope around the same payload session
// snapshots and the experiment cache carry, so one decoder, with its shape
// checks, reads a policy however it arrives:
//
//	magic   u32  "SOCP"
//	version u16  policyVersion
//	kind    u8   policyMLP or policyTree
//	payload      MLPPolicy.EncodeTo or TreePolicy.EncodeTo
//
// The MLP payload keeps the SGD momentum; a session starts from Clone,
// which zeroes it, so the momentum in a file never changes a decision.
const (
	policyMagic   uint32 = 0x50434F53 // "SOCP", little-endian
	policyVersion uint16 = 2          // version 1 was a JSON format, no longer read
	policyMLP     uint8  = 1
	policyTree    uint8  = 2
)

// SaveMLPPolicy serializes a neural policy.
func SaveMLPPolicy(w io.Writer, p *MLPPolicy) error {
	if p.Scaler == nil {
		return fmt.Errorf("il: saving MLP policy: no feature scaler")
	}
	return savePolicy(w, policyMLP, p.EncodeTo)
}

// SaveTreePolicy serializes a regression-tree policy.
func SaveTreePolicy(w io.Writer, p *TreePolicy) error {
	if p.Scaler == nil {
		return fmt.Errorf("il: saving tree policy: no feature scaler")
	}
	return savePolicy(w, policyTree, p.EncodeTo)
}

func savePolicy(w io.Writer, kind uint8, payload func(*snap.Encoder)) error {
	var e snap.Encoder
	e.U32(policyMagic)
	e.U16(policyVersion)
	e.U8(kind)
	payload(&e)
	_, err := w.Write(e.Bytes())
	return err
}

// LoadPolicy reads a policy file of either kind and binds it to a platform.
// The returned Policy is a *MLPPolicy or a *TreePolicy; callers that need
// the concrete type (e.g. to seed an online learner from the neural policy)
// type-assert on the result.
func LoadPolicy(r io.Reader, platform *soc.Platform) (Policy, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("il: reading policy: %w", err)
	}
	d := snap.NewDecoder(data)
	if m := d.U32(); m != policyMagic {
		return nil, fmt.Errorf("il: not a binary policy file (want magic \"SOCP\", got %q); "+
			"JSON policy files are no longer read", data[:min(len(data), 4)])
	}
	if v := d.U16(); v != policyVersion {
		return nil, fmt.Errorf("il: policy file version %d, want %d", v, policyVersion)
	}
	var pol Policy
	switch kind := d.U8(); kind {
	case policyMLP:
		pol, err = DecodeMLPPolicy(d, platform)
	case policyTree:
		pol, err = DecodeTreePolicy(d, platform)
	default:
		if err = d.Err(); err == nil {
			err = fmt.Errorf("unknown policy kind %d", kind)
		}
	}
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	if err != nil {
		return nil, fmt.Errorf("il: decoding policy: %w", err)
	}
	return pol, nil
}
