package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Shared constructors for experiment drivers, all at the paper's 8 KB /
// 32-byte-line geometry.

// newColAssocForExperiment builds the §3.1 option-4 column-associative
// cache with a degree-8 irreducible rehash polynomial over 19 address
// bits.
func newColAssocForExperiment() *cache.ColumnAssociative {
	return cache.NewColumnAssociative(8<<10, 32, gf2.Irreducibles(8, 1)[0], 19)
}

// newDMConfigForExperiment is the plain direct-mapped baseline
// configuration (a grid point in the drivers that compare against it).
func newDMConfigForExperiment() cache.Config {
	return cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 1, WriteAllocate: false}
}

// suiteFor resolves the benchmark set a memory-trace driver iterates:
// the standard synthetic suite, or — when the shared options name a
// trace file — that single external trace standing in for the whole
// suite.  Every per-benchmark row then reports the file (by base name)
// exactly as it would a synthetic program.
func suiteFor(b exp.Base) ([]workload.Profile, error) {
	if b.TraceFile == "" {
		return workload.Suite(), nil
	}
	prof, err := workload.ExternalProfile(b.TraceFile)
	if err != nil {
		return nil, err
	}
	return []workload.Profile{prof}, nil
}

// forEachProgram runs fn on the suite suiteFor resolves, one runner job
// per program, and returns the suite with fn's values in suite order.
func forEachProgram[T any](ctx context.Context, b exp.Base,
	fn func(ctx context.Context, prof workload.Profile) (T, error)) ([]workload.Profile, []T, error) {
	suite, err := suiteFor(b)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]func(context.Context) (T, error), len(suite))
	for i, prof := range suite {
		jobs[i] = func(ctx context.Context) (T, error) { return fn(ctx, prof) }
	}
	vals, err := runner.All(ctx, jobs)
	return suite, vals, err
}
