// Package runner is the deterministic parallel sweep engine behind every
// experiment driver.  An experiment is decomposed into jobs — plain
// functions, typically one per benchmark or per stride range — and
// executed by a bounded worker pool.  Three properties make the engine
// safe to drop under existing drivers:
//
//   - Determinism: All returns each job's value at the job's index, so
//     the caller reduces values in job order whatever order they finish
//     in.  A job's value depends only on its own inputs (drivers seed
//     their workloads from the experiment's config, never from
//     scheduling order or worker identity), so output is bit-identical
//     at any GOMAXPROCS.
//   - Bounded parallelism: at most runtime.GOMAXPROCS(0) goroutines run
//     jobs, dispatched off a single atomic cursor — no per-job goroutine
//     explosion, no global lock on the hot path.
//   - Cancellation: the pool stops dispatching as soon as the context
//     is cancelled, and jobs receive the context so long-running
//     simulations can abort mid-flight.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// outstanding counts not-yet-finished jobs across every concurrently
// active All in the process (see Outstanding).
var outstanding atomic.Int64

// Outstanding returns the number of pool jobs currently dispatched or
// queued across all active All calls in the process.  It is the
// job-level half of the machine's shared concurrency budget: intra-job
// parallelism (trace sharding) divides GOMAXPROCS by this figure, so a
// saturated pool keeps every job sequential while the pool's tail — or
// a single-experiment run — fans out within the job.
func Outstanding() int {
	n := outstanding.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// All runs jobs on a pool of runtime.GOMAXPROCS(0) workers and returns
// their values in job order.  It is the workhorse of the experiment
// drivers: decompose the grid into jobs, All them, reduce the ordered
// slice.  Each job receives the pool's context; a long-running job
// should poll its Err and return promptly once the pool is cancelled.
//
// All returns the context's error if it was cancelled, otherwise the
// first job error in job order, otherwise nil.
func All[T any](ctx context.Context, jobs []func(context.Context) (T, error)) ([]T, error) {
	out := make([]T, len(jobs))
	err := run(ctx, len(jobs), func(ctx context.Context, i int) error {
		v, err := jobs[i](ctx)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run calls do(ctx, i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns All's error.  It takes no type parameters, so
// the pool is compiled once rather than once per result type.
func run(ctx context.Context, n int, do func(context.Context, int) error) error {
	errs := make([]error, n)
	var cursor, finished atomic.Int64
	var wg sync.WaitGroup
	// The whole batch counts as outstanding until each job finishes;
	// jobs never dispatched (cancellation) are settled after the pool
	// drains.
	outstanding.Add(int64(n))
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = do(ctx, i)
				finished.Add(1)
				outstanding.Add(-1)
			}
		}()
	}
	wg.Wait()
	outstanding.Add(finished.Load() - int64(n))
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
