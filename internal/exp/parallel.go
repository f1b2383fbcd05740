package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every sweep in this package is embarrassingly parallel: each point
// (farm size, viewer count, re-key interval) builds its own core.System with its own sim.Scheduler and seeded
// random streams, so points share no mutable state. runPoints fans the
// points out over a bounded worker pool and assembles results in input
// order, which keeps every sweep's output byte-identical to a sequential
// run — determinism lives inside each scheduler, not in the order points
// happen to finish.

// runPoints evaluates run(i) for i in [0, n) on min(GOMAXPROCS, n) OS
// threads and returns the results in input order. The first error by
// input index wins, matching what a sequential loop would have
// returned; later points still run to completion (they are side-effect
// free).
func runPoints[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
