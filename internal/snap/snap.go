// Package snap is the deterministic binary codec behind session
// snapshot/migration: a little-endian, length-prefixed format with no maps,
// no reflection and no per-field framing, so the same state always encodes
// to the same bytes (snapshots are digest-comparable) and decoding is a
// single forward pass with one accumulated error.
//
// The codec deliberately does not know what it is encoding. Each layer
// (mlp, rls, il, serve) writes its own state in a fixed field order and
// reads it back in the same order; version negotiation happens once, in the
// outermost envelope (serve's session snapshot header).
package snap

import (
	"fmt"
	"math"
	"slices"
)

// Encoder appends values to a growing buffer. The zero value is ready to
// use; Bytes returns the encoded snapshot.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer (owned by the encoder).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow ensures room for n more bytes without reallocating, so an encoder
// sized from a known or previous length fills one buffer instead of
// doubling through several. It never changes the encoded bytes.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 by its IEEE-754 bit pattern, so the round trip is
// exact for every value including NaNs and signed zeros.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Decoder reads values back in encode order. The first failure (truncated
// buffer, oversized length prefix) latches into err; every later read
// returns a zero value, so decode paths read the whole layout straight
// through and check Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail latches the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snap: "+format, args...)
	}
}

// take returns the next n bytes, or nil after latching a truncation error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64, rejecting values outside the platform
// int range.
func (d *Decoder) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail("int64 %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads a boolean, rejecting anything but 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.fail("invalid boolean at offset %d", d.off-1)
		}
		return false
	}
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// sliceLen validates a length prefix against the remaining buffer: every
// element needs at least min bytes, so a hostile prefix can never force a
// giant allocation out of a short buffer.
func (d *Decoder) sliceLen(min int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*min > d.Remaining() {
		d.fail("length prefix %d exceeds remaining %d bytes", n, d.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.sliceLen(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a length-prefixed []float64 (nil when empty).
func (d *Decoder) F64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// F64sInto reads a length-prefixed []float64 that must have exactly len(dst)
// elements, filling dst in place (fixed-size snapshot fields).
func (d *Decoder) F64sInto(dst []float64) {
	n := d.sliceLen(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail("fixed field has %d values, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = d.F64()
	}
}

// Ints reads a length-prefixed []int (nil when empty).
func (d *Decoder) Ints() []int {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}
