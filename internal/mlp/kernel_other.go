//go:build !amd64 || purego

package mlp

// Without the amd64 vector kernels the Go loops are the whole kernel.

func backpropLayer(nextDelta, prev, delta, W, M []float64, lr, momentum float64) {
	backpropLayerGo(nextDelta, prev, delta, W, M, lr, momentum)
}

func updateInputLayer(x, delta, W, M []float64, lr, momentum float64, k uint64) {
	updateInputLayerGo(x, delta, W, M, lr, momentum, k)
}
