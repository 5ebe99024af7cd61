package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/workload"
)

// Shared constructors for experiment drivers, all at the paper's 8 KB /
// 32-byte-line geometry.

// newAdaptiveForExperiment builds the §3.1 option-2 adaptive cache with
// the paper's 256 KB page-size threshold.
func newAdaptiveForExperiment() *hierarchy.AdaptiveCache {
	return hierarchy.NewAdaptiveCache(8<<10, 32, 2,
		index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits), 256<<10)
}

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

// rejectTraceFile is the guard for drivers that cannot consume an
// external memory trace: CPU-level models need full instruction
// records (PCs, registers, branch outcomes) and the stride studies
// synthesize their own reference patterns — neither is derivable from
// an address trace.
func rejectTraceFile(name string, b exp.Base) error {
	if b.TraceFile == "" {
		return nil
	}
	return fmt.Errorf("%s: -tracefile is not supported: this experiment needs full synthetic instruction traces; use a memory-trace experiment (replay, missratio, stddev, threec, sweep, curves, colassoc, holes)", name)
}
