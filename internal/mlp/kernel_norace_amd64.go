//go:build !purego && !race

package mlp

// Without -race there is no detector to tell about the kernels' accesses.

func raceRead([]float64)  {}
func raceWrite([]float64) {}
