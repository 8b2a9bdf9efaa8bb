// Package fleet runs batches of estimation work across a bounded worker
// pool with deterministic seeding: results are bit-identical whether the
// batch runs on one worker or GOMAXPROCS, because every unit of work
// derives all of its randomness from its index, never from scheduling.
//
// Two layers are provided. Map is the generic substrate — an index-ordered
// parallel map with bounded workers and context cancellation, the
// job-level generalization of the trial pool the experiment harness has
// always used. Run is the estimation-specific runner on top: it takes a
// slice of Jobs ({System, estimator, ε, δ, trials}), fans them out, keys
// every trial's session on (batch seed, job index, trial index) via
// rfidest.WithSeedSalt, collects per-job errors, and aggregates
// accuracy, throughput and simulated air time into a Report.
//
// Determinism allowlist policy: this package is covered by the detrand
// analyzer (cmd/ and examples/ are the only blanket exemptions), and it
// deliberately reads the wall clock in exactly one place — timing Run to
// report WallSeconds and Throughput. That measurement is outside the
// determinism contract: it describes the host machine, never feeds an
// estimate, and is documented as the only scheduling-dependent output of
// a Report. Each wall-clock read carries a //lint:allow detrand
// suppression at the use site so the exemption stays visible in source
// review rather than hiding in linter configuration; any new wall-clock
// read here must justify itself the same way.
package fleet

import (
	"context"
	"runtime"
	"sync"
)

// Map evaluates fn(0..n-1) across a bounded worker pool and returns the
// results in index order. workers <= 0 means GOMAXPROCS. The output is
// bit-identical to a sequential loop whenever fn(i) depends only on i —
// parallelism changes wall-clock time, never results.
//
// Cancellation: when ctx is done, workers stop picking up new indices and
// Map returns ctx.Err() alongside the partial results; slots whose fn
// never ran hold T's zero value. In-flight fn calls are not interrupted
// (fn may watch ctx itself if its work is long).
func Map[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = fn(i)
		}
		return out, nil
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				out[i] = fn(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(indices)
	wg.Wait()
	return out, err
}
