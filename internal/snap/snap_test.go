package snap

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// encodeAll writes one of every value kind, with edge values, in a fixed
// order; decodeAll reads them back and checks each.
func encodeAll(e *Encoder) {
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(math.MinInt64)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(-1))
	e.F64(math.Float64frombits(0x7ff8000000000001)) // a NaN payload
	e.String("")
	e.String("session-ü")
	e.F64s(nil)
	e.F64s([]float64{1.5, -2, math.SmallestNonzeroFloat64})
	e.Ints([]int{0, -1, math.MaxInt64})
	e.F64s([]float64{7, 8}) // read back with F64sInto
}

func decodeAll(t *testing.T, d *Decoder) {
	t.Helper()
	check := func(name string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("U8", d.U8(), uint8(0xab))
	check("U16", d.U16(), uint16(0xbeef))
	check("U32", d.U32(), uint32(0xdeadbeef))
	check("U64", d.U64(), uint64(0x0123456789abcdef))
	check("I64", d.I64(), int64(math.MinInt64))
	check("Int", d.Int(), -42)
	check("Bool", d.Bool(), true)
	check("Bool", d.Bool(), false)
	check("F64 -0", math.Float64bits(d.F64()), math.Float64bits(math.Copysign(0, -1)))
	check("F64 -Inf", d.F64(), math.Inf(-1))
	check("F64 NaN", math.Float64bits(d.F64()), uint64(0x7ff8000000000001))
	check("String", d.String(), "")
	check("String", d.String(), "session-ü")
	if v := d.F64s(); v != nil {
		t.Errorf("empty F64s = %v, want nil", v)
	}
	if v := d.F64s(); len(v) != 3 || v[0] != 1.5 || v[1] != -2 || v[2] != math.SmallestNonzeroFloat64 {
		t.Errorf("F64s = %v", v)
	}
	if v := d.Ints(); len(v) != 3 || v[0] != 0 || v[1] != -1 || v[2] != math.MaxInt64 {
		t.Errorf("Ints = %v", v)
	}
	dst := make([]float64, 2)
	d.F64sInto(dst)
	if dst[0] != 7 || dst[1] != 8 {
		t.Errorf("F64sInto = %v", dst)
	}
	if d.Err() != nil {
		t.Fatalf("round trip failed: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after decoding everything", d.Remaining())
	}
}

func TestRoundTrip(t *testing.T) {
	var e Encoder
	encodeAll(&e)
	if e.Len() != len(e.Bytes()) {
		t.Fatalf("Len %d != len(Bytes) %d", e.Len(), len(e.Bytes()))
	}
	decodeAll(t, NewDecoder(e.Bytes()))
}

// TestGrowNeverChangesOutput pre-sizes with every kind of hint — none, too
// small, exact, too large, and again mid-stream — and demands identical
// bytes, with an exact hint filling one buffer.
func TestGrowNeverChangesOutput(t *testing.T) {
	var ref Encoder
	encodeAll(&ref)
	want := ref.Bytes()
	for _, hint := range []int{0, 1, 7, len(want) - 1, len(want), 4 * len(want)} {
		var e Encoder
		e.Grow(hint)
		e.U8(0xab)
		e.Grow(hint) // mid-stream: must keep what is already written
		var rest Encoder
		encodeAll(&rest)
		e.buf = append(e.buf, rest.Bytes()[1:]...)
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("Grow(%d) changed the encoding", hint)
		}
	}
	var e Encoder
	e.Grow(len(want))
	base := &e.Bytes()[:1][0]
	encodeAll(&e)
	if &e.Bytes()[0] != base {
		t.Fatal("an exactly grown encoder reallocated while encoding")
	}
}

func TestTruncationLatches(t *testing.T) {
	var e Encoder
	encodeAll(&e)
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		for i := 0; i < 20; i++ { // read past the end: zero values, no panic
			d.U64()
			_ = d.F64s()
			_ = d.String()
		}
		if d.Err() == nil {
			t.Fatalf("decoding %d of %d bytes reported no error", n, len(full))
		}
	}
}

func TestInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	if d.Bool() || d.Err() == nil {
		t.Fatal("byte 2 decoded as a boolean")
	}
}

func TestF64sIntoLengthMismatch(t *testing.T) {
	var e Encoder
	e.F64s([]float64{1, 2, 3})
	d := NewDecoder(e.Bytes())
	dst := []float64{9, 9}
	d.F64sInto(dst)
	if d.Err() == nil || dst[0] != 9 {
		t.Fatalf("3 values into a 2-slot field: err %v, dst %v", d.Err(), dst)
	}
}

// TestHostileLengthPrefix feeds length prefixes claiming up to 4 Gi
// elements over a few real bytes: every slice read must fail, and decoding
// must allocate no more than a small constant (the error), never anything
// sized from the prefix.
func TestHostileLengthPrefix(t *testing.T) {
	for _, prefix := range []uint32{math.MaxUint32, 1 << 28, 9} {
		var e Encoder
		e.U32(prefix)
		e.U64(1) // 8 real bytes: too few for any prefix above
		input := e.Bytes()
		reads := map[string]func(d *Decoder){
			"String":   func(d *Decoder) { _ = d.String() },
			"F64s":     func(d *Decoder) { _ = d.F64s() },
			"Ints":     func(d *Decoder) { _ = d.Ints() },
			"F64sInto": func(d *Decoder) { d.F64sInto(make([]float64, 0)) },
		}
		for name, read := range reads {
			d := NewDecoder(input)
			read(d)
			if d.Err() == nil {
				t.Fatalf("%s with prefix %d over %d bytes: no error", name, prefix, len(input))
			}
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				read(NewDecoder(input))
			}
			runtime.ReadMemStats(&after)
			if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 512 {
				t.Fatalf("%s with prefix %d allocates %d bytes per decode, want <= 512", name, prefix, perRun)
			}
		}
	}
}
