// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the supporting studies quoted in the text
// (hole probability, organization comparison, miss-ratio predictability,
// column-associative probe rates) and the ablations listed in DESIGN.md.
//
// Every driver is registered with the process-wide registry in
// internal/exp (see register.go): it declares a typed config struct
// embedding exp.Base (instructions/seed/tracefile) plus its own
// flag-tagged parameters, runs as RunXxxCtx(ctx, cfg) on the parallel
// sweep engine, and converts its structured result into the uniform
// exp.Report model.  The CLI, `repro all` and the golden suite are all
// generated from that registration — adding an experiment here is the
// only edit required to ship it everywhere.
package experiments

// Default scale of the stride-sweep experiments: the full 1..4095 sweep
// with 17 walk rounds per stride (first round is warm-up).
const (
	defaultRounds    = 17
	defaultMaxStride = 4096
)

// Paper cache geometry shared by every experiment: 32-byte lines, 2-way;
// 8 KB => 128 sets (7 index bits); 19 address bits feed the hash
// functions, i.e. 14 block-address bits.
const (
	blockBits  = 5
	hashInBits = 19 - blockBits // v-m block-address bits available to hashes
	setBits8K  = 7
	setBits16K = 8
)
