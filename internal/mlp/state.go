package mlp

import (
	"fmt"

	"socrm/internal/snap"
)

// EncodeTo writes the network's complete trainable state — weights, biases
// AND the SGD momentum buffers — to the binary encoder. An online learner
// continuing its incremental update schedule on another process is only
// bit-identical if the optimizer state moves with the weights.
func (n *Network) EncodeTo(e *snap.Encoder) {
	e.Ints(n.Sizes)
	e.U8(uint8(n.Act))
	for l := range n.W {
		e.F64s(n.W[l])
		e.F64s(n.B[l])
		e.F64s(n.mW[l])
		e.F64s(n.mB[l])
	}
}

// DecodeNetwork reconstructs a network (including momentum) written by
// EncodeTo.
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
		w, b, mw, mb := d.F64s(), d.F64s(), d.F64s(), d.F64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(w) != in*out || len(b) != out || len(mw) != in*out || len(mb) != out {
			return nil, fmt.Errorf("mlp: decoded layer %d has %d/%d/%d/%d values, want %d/%d weights/biases",
				l, len(w), len(b), len(mw), len(mb), in*out, out)
		}
		n.W = append(n.W, w)
		n.B = append(n.B, b)
		n.mW = append(n.mW, mw)
		n.mB = append(n.mB, mb)
	}
	return n, nil
}
