package experiments

import (
	"context"

	"repro/internal/exp"
)

// register wires one typed driver into the process-wide registry: def
// supplies the defaults (and, via its flag tags, the parameter spec;
// exp.DefaultBase for a study with no parameters of its own), rev is
// the result-schema revision content-addressing the experiment's cached
// reports (bump it when the driver's semantics or report layout
// change), run is the RunXxxCtx driver and report converts its
// structured result into the uniform model.  The registry sees only
// exp.Config/exp.Report; all typing stays here.  traces says whether
// the driver can replay a -tracefile (exp.Experiment.Synthetic).
// exp.RunWith normalizes the config against def before Run and stamps
// the run metadata after it, so report only converts the result.
func register[R any, C any, PC interface {
	*C
	exp.Config
}](name, summary string, rev int, traces traceInput,
	def func() C,
	run func(context.Context, C) (R, error),
	report func(R, C) *exp.Report,
) {
	exp.Register(exp.Experiment{
		Name:      name,
		Summary:   summary,
		Rev:       rev,
		Synthetic: traces == syntheticOnly,
		New: func() exp.Config {
			c := def()
			return PC(&c)
		},
		Run: func(ctx context.Context, cfg exp.Config) (*exp.Report, error) {
			c := *cfg.(PC)
			res, err := run(ctx, c)
			if err != nil {
				return nil, err
			}
			return report(res, c), nil
		},
	})
}

// A traceInput says what an experiment's driver simulates.
type traceInput int

const (
	// memoryTrace drivers replay a benchmark's memory trace: the
	// synthetic suite's, or a -tracefile standing in for it.
	memoryTrace traceInput = iota
	// syntheticOnly drivers run the out-of-order core on full
	// instruction traces, or generate their own stride patterns.
	syntheticOnly
)

// withDefaults applies the registry's normalization rule (exp.Normalize)
// at a driver entry point: each zero flag-tagged field of cfg takes
// def's value.  exp.RunWith already normalizes, so this serves library
// callers that reach a RunXxxCtx directly with a partial config.
func withDefaults[C any, PC interface {
	*C
	exp.Config
}](cfg C, def func() C) C {
	d := def()
	return *exp.Normalize(PC(&cfg), PC(&d)).(PC)
}

// init registers every experiment of the paper reproduction.  The
// registry sorts by name, so declaration order here is cosmetic.
func init() {
	register("fig1", "Figure 1: miss-ratio distribution across strides, 4 index schemes", 1, syntheticOnly,
		DefaultFig1Config, RunFig1Ctx, Fig1Result.report)
	register("table2", "Table 2: IPC & load miss ratio, 18 benchmarks x 6 configurations", 1, syntheticOnly,
		exp.DefaultBase, RunTable2Ctx, Table2Result.report)
	register("table3", "Table 3: high-conflict programs and bad/good averages", 1, syntheticOnly,
		exp.DefaultBase, RunTable3Ctx, Table3Result.report)
	register("holes", "§3.3: hole probability model vs simulation", 1, memoryTrace,
		exp.DefaultBase, RunHolesCtx, HolesResult.report)
	register("missratio", "§2.1: cache organization comparison (I-Poly vs alternatives)", 1, memoryTrace,
		exp.DefaultBase, RunOrgsCtx, OrgResult.report)
	register("stddev", "§5: miss-ratio predictability (stddev across the suite)", 1, memoryTrace,
		exp.DefaultBase, RunStdDevCtx, StdDevResult.report)
	register("colassoc", "§3.1 option 4: column-associative polynomial rehash", 1, memoryTrace,
		exp.DefaultBase, RunColAssocCtx, ColAssocResult.report)
	register("options31", "§3.1: the four routes around minimum-page-size limits", 1, syntheticOnly,
		exp.DefaultBase, RunOptions31Ctx, Options31Result.report)
	register("curves", "whole miss-ratio curves per indexing scheme via stack distance", 1, memoryTrace,
		DefaultCurvesConfig, RunCurvesCtx, CurvesResult.report)
	register("sweep", "design-space sweep: size x ways x scheme miss-ratio grid", 1, memoryTrace,
		exp.DefaultBase, RunSweepCtx, SweepResult.report)
	register("threec", "3C miss classification per benchmark, conventional vs I-Poly", 1, memoryTrace,
		exp.DefaultBase, RunThreeCCtx, ThreeCResult.report)
	register("interleave", "§2.1 lineage: interleaved-memory bank selectors, bandwidth vs stride", 1, syntheticOnly,
		DefaultInterleaveConfig, RunInterleaveCtx, InterleaveResult.report)
	register("ablate", "design-choice ablations (polynomial, skew, bits, replacement, MSHRs, predictor, L2)", 1, syntheticOnly,
		exp.DefaultBase, RunAblateCtx, AblateResult.report)
	register("replay", "trace replay: one cache geometry driven by a trace file or benchmark, optionally time-sharded", 2, memoryTrace,
		DefaultReplayConfig, RunReplayCtx, ReplayResult.report)
}
