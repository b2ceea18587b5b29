// Package memo is a two-tier content-addressed result cache for the
// deterministic heavy lifting behind experiment construction: Oracle label
// sweeps, trained offline policies, NMPC explicit-surface refits. Results
// are keyed by a digest of the *full input content* — platform knob ranges,
// snippet traces, objective name, version tag — never by file names or
// struct identities, so two callers that describe the same computation share
// one result, across goroutines (singleflight), across Study instances
// (in-memory tier) and across process runs (optional on-disk tier).
package memo

import (
	"math"
	"math/bits"
)

// Key is a 128-bit content digest. It is a comparable value type so it can
// index shard maps without allocating.
type Key struct {
	Hi, Lo uint64
}

// Hex renders the key as 32 lowercase hex digits (the on-disk file name).
func (k Key) Hex() string {
	const digits = "0123456789abcdef"
	var b [32]byte
	for i := 0; i < 16; i++ {
		var by byte
		if i < 8 {
			by = byte(k.Hi >> (56 - 8*i))
		} else {
			by = byte(k.Lo >> (56 - 8*(i-8)))
		}
		b[2*i] = digits[by>>4]
		b[2*i+1] = digits[by&0xf]
	}
	return string(b[:])
}

// Hasher folds input content into a 128-bit key: two decorrelated 64-bit
// FNV-1a-style lanes mixed word-at-a-time, finished with murmur3 avalanche
// finalizers. It is a value type intended to live on the caller's stack —
// keying a cached lookup must not allocate. Not cryptographic; collisions
// across distinct experiment inputs are a non-goal beyond 128-bit rarity.
type Hasher struct {
	a, b, n uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	laneBOffset = 0x9e3779b97f4a7c15 // golden-ratio constant, decorrelates lane b
)

// NewHasher returns a ready-to-use Hasher.
func NewHasher() Hasher {
	return Hasher{a: fnvOffset64, b: laneBOffset}
}

func (h *Hasher) mix(v uint64) {
	h.a = (h.a ^ v) * fnvPrime64
	h.b = (bits.RotateLeft64(h.b, 29) ^ v) * fnvPrime64
	h.b += h.a >> 32
	h.n++
}

// fmix64 is the murmur3 avalanche finalizer; without it the low bits of an
// FNV lane barely depend on late input words.
func fmix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Int folds one int.
func (h *Hasher) Int(v int) { h.mix(uint64(int64(v))) }

// F64 folds the IEEE-754 bits of one float; distinct NaN payloads hash
// differently, which is fine — experiment inputs never carry NaNs.
func (h *Hasher) F64(v float64) { h.mix(bitsOf(v)) }

// F64s folds a float slice, length-prefixed so adjacent slices don't blend.
func (h *Hasher) F64s(v []float64) {
	h.mix(uint64(len(v)))
	for _, f := range v {
		h.mix(bitsOf(f))
	}
}

// String folds a string, length-prefixed, eight bytes per mix step. The
// tail word carries the residual byte count in its (always free) top byte
// so "ab" and "ab\x00" cannot collide.
func (h *Hasher) String(s string) {
	h.mix(uint64(len(s)))
	var w uint64
	var k uint
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * k)
		k++
		if k == 8 {
			h.mix(w)
			w, k = 0, 0
		}
	}
	if k > 0 {
		h.mix(w | uint64(k)<<56)
	}
}

// Sum finalizes the digest. The hasher remains usable; Sum is a snapshot.
func (h *Hasher) Sum() Key {
	return Key{
		Hi: fmix64(h.a ^ bits.RotateLeft64(h.b, 32) ^ h.n),
		Lo: fmix64(h.b ^ h.a*fnvPrime64 + h.n),
	}
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }
