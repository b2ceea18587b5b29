package regtree

import (
	"fmt"

	"socrm/internal/snap"
)

// Binary tree/forest codec over the snap format, which persists fitted
// trees (explicit-NMPC surfaces, the offline tree policy) bit-exactly:
// every float survives with its IEEE bits intact, so a decoded tree
// predicts exactly what the fitted one did.

// maxDecodeDepth bounds recursion on decode; fitted trees are MaxDepth<=10
// deep, so anything past this is a corrupt stream.
const maxDecodeDepth = 64

// EncodeTo writes the tree in preorder: a leaf marker, the node fields,
// then (for splits) the left and right subtrees.
func (t *Tree) EncodeTo(e *snap.Encoder) {
	leaf := t.feature < 0 || t.left == nil || t.right == nil
	e.Bool(leaf)
	if leaf {
		e.Int(-1)
	} else {
		e.Int(t.feature)
	}
	e.F64(t.thresh)
	e.F64(t.value)
	e.Int(t.n)
	if !leaf {
		t.left.EncodeTo(e)
		t.right.EncodeTo(e)
	}
}

// DecodeTree reconstructs a tree written by EncodeTo.
func DecodeTree(d *snap.Decoder) (*Tree, error) {
	t, err := decodeTree(d, 0)
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeTree(d *snap.Decoder, depth int) (*Tree, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("regtree: decoded tree exceeds depth %d", maxDecodeDepth)
	}
	leaf := d.Bool()
	t := &Tree{feature: d.Int(), thresh: d.F64(), value: d.F64(), n: d.Int()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if leaf != (t.feature < 0) || t.feature < -1 {
		// EncodeTo writes -1 for every leaf and a feature index for every
		// split; anything else would not re-encode to the same bytes.
		return nil, fmt.Errorf("regtree: node decoded with leaf %v, feature %d", leaf, t.feature)
	}
	if leaf {
		return t, nil
	}
	var err error
	if t.left, err = decodeTree(d, depth+1); err != nil {
		return nil, err
	}
	if t.right, err = decodeTree(d, depth+1); err != nil {
		return nil, err
	}
	return t, nil
}

// minTreeBytes is the encoded size of a one-leaf tree. A decoded forest's
// tree count is bounded by the bytes left to hold its trees, so a corrupt
// prefix cannot allocate more than the input could fill.
const minTreeBytes = 1 + 4*8

// EncodeTo writes the forest, length-prefixed.
func (f *Forest) EncodeTo(e *snap.Encoder) {
	e.Int(len(f.Trees))
	for _, t := range f.Trees {
		t.EncodeTo(e)
	}
}

// DecodeForest reconstructs a forest written by EncodeTo.
func DecodeForest(d *snap.Decoder) (*Forest, error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/minTreeBytes {
		return nil, fmt.Errorf("regtree: decoded forest has %d trees", n)
	}
	f := &Forest{Trees: make([]*Tree, n)}
	for i := range f.Trees {
		t, err := DecodeTree(d)
		if err != nil {
			return nil, err
		}
		f.Trees[i] = t
	}
	return f, nil
}

// MaxFeature returns the largest feature index any split in the forest
// tests, or -1 when every tree is a single leaf.
func (f *Forest) MaxFeature() int {
	m := -1
	for _, t := range f.Trees {
		m = max(m, t.maxFeature())
	}
	return m
}

func (t *Tree) maxFeature() int {
	if t.feature < 0 {
		return -1
	}
	return max(t.feature, t.left.maxFeature(), t.right.maxFeature())
}
