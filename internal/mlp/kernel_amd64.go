//go:build !purego

package mlp

// useAVX2 selects the AVX2 kernels in kernel_amd64.s. It is set once, from
// CPUID and XGETBV: the CPU has AVX2 and the OS saves the YMM registers.
// Without them the Go loops run, as they do under the purego tag and on
// other architectures.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether AVX2 instructions can run.
func cpuHasAVX2() bool

// backpropAVX2 is backpropLayerGo over len(delta) rows of len(prev)
// columns, four columns per vector, one row at a time.
//
//go:noescape
func backpropAVX2(nextDelta, prev, delta, w, m []float64, lr, momentum float64)

// updateInputAVX2 is updateInputLayerGo over len(delta) rows of len(x)
// columns, four columns per vector. k = 0 runs the plain update; k > 0
// skips per lane as the Go loop does, and needs every delta finite.
//
//go:noescape
func updateInputAVX2(x, delta, w, m []float64, lr, momentum float64, k uint64)

// backpropLayer is the hidden-layer backward step.
func backpropLayer(nextDelta, prev, delta, W, M []float64, lr, momentum float64) {
	in := len(prev)
	if !useAVX2 || in == 0 || len(delta) == 0 {
		backpropLayerGo(nextDelta, prev, delta, W, M, lr, momentum)
		return
	}
	// The last elements the kernel reads and writes: a wrong shape panics
	// here, in Go, instead of sending the kernel past a slice's end.
	n := len(delta) * in
	_, _, _ = nextDelta[in-1], W[n-1], M[n-1]
	raceRead(prev)
	raceRead(delta)
	raceWrite(nextDelta[:in])
	raceWrite(W[:n])
	raceWrite(M[:n])
	backpropAVX2(nextDelta, prev, delta, W, M, lr, momentum)
}

// updateInputLayer is the input layer's update.
func updateInputLayer(x, delta, W, M []float64, lr, momentum float64, k uint64) {
	in := len(x)
	if !useAVX2 || in == 0 || len(delta) == 0 {
		updateInputLayerGo(x, delta, W, M, lr, momentum, k)
		return
	}
	if k > 0 && !finite(delta) {
		k = 0
	}
	n := len(delta) * in
	_, _ = W[n-1], M[n-1]
	raceRead(x)
	raceRead(delta)
	raceWrite(W[:n])
	raceWrite(M[:n])
	updateInputAVX2(x, delta, W, M, lr, momentum, k)
}
