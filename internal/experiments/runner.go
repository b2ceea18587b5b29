package experiments

// This file is the concurrent experiment engine: a small generic worker
// pool that every embarrassingly-parallel loop in the package (Oracle
// labeling, per-app evaluations, sweep grids) runs on. Results are keyed
// by input index, never by arrival order, so a parallel run is
// bit-identical to the serial one; any randomness a job needs must come
// from a seed derived per job (see Options.Seed plumbing), never from a
// *rand.Rand shared across jobs.

import (
	"runtime"
	"sync"
)

// normWorkers resolves a worker-count request: n <= 0 means one worker
// per available CPU, and there is never a point in more workers than jobs.
func normWorkers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// MapJobs runs fn over every input on up to workers goroutines (workers
// <= 0 means GOMAXPROCS) and returns the outputs in input order. workers
// == 1 runs everything serially on the calling goroutine — the serial
// reference path for determinism checks.
func MapJobs[T, R any](workers int, inputs []T, fn func(i int, in T) R) []R {
	out := make([]R, len(inputs))
	if len(inputs) == 0 {
		return out
	}
	if workers = normWorkers(workers, len(inputs)); workers == 1 {
		for i, in := range inputs {
			out[i] = fn(i, in)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = fn(i, inputs[i])
			}
		}()
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
