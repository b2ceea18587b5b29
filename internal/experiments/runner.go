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

// Job carries one unit of work into the pool: its position in the input
// slice and the input itself.
type Job[T any] struct {
	Index int
	Input T
}

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

// RunJobs executes fn over every input on up to workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the outputs in input order.
// workers == 1 runs everything serially on the calling goroutine — the
// serial reference path for determinism checks. If any jobs fail, the
// error of the lowest-indexed failure is returned (deterministic
// regardless of scheduling) alongside the partial outputs.
func RunJobs[T, R any](workers int, inputs []T, fn func(Job[T]) (R, error)) ([]R, error) {
	out := make([]R, len(inputs))
	if len(inputs) == 0 {
		return out, nil
	}
	errs := make([]error, len(inputs))
	if workers = normWorkers(workers, len(inputs)); workers == 1 {
		for i, in := range inputs {
			out[i], errs[i] = fn(Job[T]{Index: i, Input: in})
		}
		return out, firstErr(errs)
	}
	jobs := make(chan Job[T])
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.Index], errs[j.Index] = fn(j)
			}
		}()
	}
	for i, in := range inputs {
		jobs <- Job[T]{Index: i, Input: in}
	}
	close(jobs)
	wg.Wait()
	return out, firstErr(errs)
}

// MapJobs is RunJobs for infallible work.
func MapJobs[T, R any](workers int, inputs []T, fn func(i int, in T) R) []R {
	out, _ := RunJobs(workers, inputs, func(j Job[T]) (R, error) {
		return fn(j.Index, j.Input), nil
	})
	return out
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
