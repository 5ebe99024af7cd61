// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the supporting studies quoted in the text
// (hole probability, organization comparison, miss-ratio predictability,
// column-associative probe rates) and the ablations listed in DESIGN.md.
//
// Every driver is registered with the process-wide registry in
// internal/exp (see register.go): its config is exp.Base
// (instructions/seed/tracefile) itself, or a struct embedding it plus
// the driver's own flag-tagged parameters; it runs as
// RunXxxCtx(ctx, cfg) on the parallel sweep engine, streams memory
// traces through runGrid — listing the flat caches it compares as
// points, whose engines runGrid picks — and converts its structured
// result into the uniform exp.Report model.  The CLI, `repro all` and
// the golden suite are all generated from that registration — adding
// an experiment here is the only edit required to ship it everywhere.
package experiments

import "fmt"

// Default scale of the stride-sweep experiments: the full 1..4095 sweep
// with 17 walk rounds per stride (first round is warm-up).
const (
	defaultRounds    = 17
	defaultMaxStride = 4096
)

// Upper bounds on the stride-sweep parameters, which size allocations:
// a value past them would exhaust memory inside a job, a fatal runtime
// error that takes `repro serve` down with it, not a recoverable panic.
const (
	// maxRounds caps fig1's rounds: a running job materializes 64 ×
	// rounds records per stride, 6 MB at 4096.
	maxRounds = 4096
	// maxMaxStride caps the maxstride of fig1 and interleave (`repro all
	// -maxstride` sets both): fig1 builds one job per 256 strides, 4,096
	// jobs at 1<<20, which is 256 times the paper's sweep.
	maxMaxStride = 1 << 20
)

// validateMaxStride checks a stride-sweep bound.  The sweep covers
// strides 1..maxstride-1, so a bound of 1 sweeps none.
func validateMaxStride(maxStride int) error {
	if maxStride < 0 || maxStride == 1 {
		return fmt.Errorf("maxstride must be 0 (the default) or at least 2, got %d", maxStride)
	}
	if maxStride > maxMaxStride {
		return fmt.Errorf("maxstride must be at most %d, got %d", maxMaxStride, maxStride)
	}
	return nil
}

// Paper cache geometry shared by every experiment: 32-byte lines, 2-way;
// 8 KB => 128 sets (7 index bits); 19 address bits feed the hash
// functions, i.e. 14 block-address bits.
const (
	blockBits  = 5
	hashInBits = 19 - blockBits // v-m block-address bits available to hashes
	setBits8K  = 7
	setBits16K = 8
)
