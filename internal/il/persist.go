package il

import (
	"fmt"
	"io"

	"socrm/internal/snap"
	"socrm/internal/soc"
)

// A policy file is what the offline training flow ships to the on-device
// governor. It is a small binary envelope around the same payload session
// snapshots carry, so one decoder, with its shape checks, reads a policy
// however it arrives:
//
//	magic   u32  "SOCP"
//	version u16  policyVersion
//	kind    u8   policyMLP (kind 2, a regression-tree policy, is no longer read)
//	payload      MLPPolicy.EncodeTo: scaler, shape, weights, biases
//
// The payload carries no SGD momentum: a session starts from Clone, which
// zeroes it, and a loaded policy holds zero momentum too. Version 1 was a
// JSON format and version 2 also carried the momentum; neither is read.
const (
	policyMagic   uint32 = 0x50434F53 // "SOCP", little-endian
	policyVersion uint16 = 3
	policyMLP     uint8  = 1
)

// SaveMLPPolicy serializes a neural policy.
func SaveMLPPolicy(w io.Writer, p *MLPPolicy) error {
	if p.Scaler == nil {
		return fmt.Errorf("il: saving MLP policy: no feature scaler")
	}
	var e snap.Encoder
	e.U32(policyMagic)
	e.U16(policyVersion)
	e.U8(policyMLP)
	p.EncodeTo(&e)
	_, err := w.Write(e.Bytes())
	return err
}

// LoadPolicy reads a policy file and binds it to a platform.
func LoadPolicy(r io.Reader, platform *soc.Platform) (*MLPPolicy, error) {
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
	var pol *MLPPolicy
	if kind := d.U8(); kind == policyMLP {
		pol, err = DecodeMLPPolicy(d, platform)
	} else if err = d.Err(); err == nil {
		err = fmt.Errorf("unknown policy kind %d", kind)
	}
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	if err != nil {
		return nil, fmt.Errorf("il: decoding policy: %w", err)
	}
	return pol, nil
}
