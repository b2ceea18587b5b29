package mlp

import (
	"fmt"

	"socrm/internal/snap"
)

// EncodeTo writes the network's shape, weights and biases to the binary
// encoder. The SGD momentum is not written: a frozen policy never trains,
// and a session starts from Clone, which zeroes it. A learner that trains
// in place writes its momentum after the network with EncodeMomentumTo.
func (n *Network) EncodeTo(e *snap.Encoder) {
	e.Ints(n.Sizes)
	e.U8(uint8(n.Act))
	for l := range n.W {
		e.F64s(n.W[l])
		e.F64s(n.B[l])
	}
}

// DecodeNetwork reconstructs a network written by EncodeTo, with zero
// momentum, as Clone leaves it.
func DecodeNetwork(d *snap.Decoder) (*Network, error) {
	sizes := d.Ints()
	act := Activation(d.U8())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(sizes) < 2 {
		return nil, fmt.Errorf("mlp: decoded network has %d layer sizes, need >= 2", len(sizes))
	}
	if act != Tanh && act != ReLU {
		return nil, fmt.Errorf("mlp: decoded network has unknown activation %d", act)
	}
	n := &Network{Sizes: sizes, Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		if in <= 0 || out <= 0 {
			return nil, fmt.Errorf("mlp: decoded layer size %dx%d invalid", in, out)
		}
		w, b := d.F64s(), d.F64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(w) != in*out || len(b) != out {
			return nil, fmt.Errorf("mlp: decoded layer %d has %d/%d values, want %d/%d weights/biases",
				l, len(w), len(b), in*out, out)
		}
		n.W = append(n.W, w)
		n.B = append(n.B, b)
		n.mW = append(n.mW, make([]float64, len(w)))
		n.mB = append(n.mB, make([]float64, len(b)))
	}
	return n, nil
}

// EncodeMomentumTo writes the SGD momentum buffers. An online learner
// continuing its incremental update schedule in another process is only
// bit-identical if the optimizer state moves with the weights.
func (n *Network) EncodeMomentumTo(e *snap.Encoder) {
	for l := range n.mW {
		e.F64s(n.mW[l])
		e.F64s(n.mB[l])
	}
}

// DecodeMomentum reads momentum written by EncodeMomentumTo into n, whose
// shape it must match layer for layer.
func (n *Network) DecodeMomentum(d *snap.Decoder) error {
	for l := range n.mW {
		d.F64sInto(n.mW[l])
		d.F64sInto(n.mB[l])
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("mlp: decoding momentum: %w", err)
	}
	return nil
}
