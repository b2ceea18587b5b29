//go:build !purego && race

package mlp

import (
	"runtime"
	"unsafe"
)

// The race detector cannot see what the assembly kernels read and write,
// so under -race the wrappers report it with these before each call.

func raceRead(s []float64) {
	if len(s) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&s[0]), 8*len(s))
	}
}

func raceWrite(s []float64) {
	if len(s) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&s[0]), 8*len(s))
	}
}
