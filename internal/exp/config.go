// Package exp is the experiment registry: every paper table, figure and
// study registers itself as a self-describing exp.Experiment (name,
// summary, typed parameter spec with defaults and validation) whose
// single entrypoint Run(ctx, Config) returns a uniform Report.  The CLI,
// `repro all`, the golden suite and any future sweep service are all
// generated from the registry — adding an experiment is a registration,
// not a cross-cutting edit.
package exp

// Base holds the options shared by every experiment configuration.
// Embed it (by value) in a per-experiment config struct; the `flag` and
// `help` tags make the fields CLI-settable via ParamsOf.
type Base struct {
	// Instructions simulated per benchmark per configuration.
	Instructions uint64 `json:"instructions" flag:"instructions" help:"instructions per benchmark per configuration"`
	// Seed for workload generation.
	Seed uint64 `json:"seed" flag:"seed" help:"workload generation seed"`
	// TraceFile, when set, replays a user-supplied din trace file
	// (optionally gzip-compressed; the reader sniffs which) in place of
	// the synthetic benchmark suite.  Experiments that need
	// full instruction records (pipeline/CPU models) or a per-benchmark
	// suite reject it with a clear error.  For content addressing the
	// path is replaced by the file's SHA-256, so cached results follow
	// the trace bytes, not the file name.
	TraceFile string `json:"tracefile,omitempty" flag:"tracefile" help:"replay this din trace file (optionally .gz) instead of the synthetic suite"`
}

// Default experiment scale: 200k instructions per program per
// configuration (the paper used 100M — the shape stabilises far earlier
// on synthetic workloads) and the paper's seed year.
const (
	DefaultInstructions = 200_000
	DefaultSeed         = 1997
)

// DefaultBase returns the standard shared options — the whole config of
// an experiment that registers Base itself.
func DefaultBase() Base {
	return Base{Instructions: DefaultInstructions, Seed: DefaultSeed}
}

// BaseConfig returns the embedded shared options; it makes any struct
// embedding Base satisfy the Config interface.
func (b *Base) BaseConfig() *Base { return b }

// Validate implements the default (always-valid) check; configs with
// stricter parameter domains shadow it.
func (b *Base) Validate() error { return nil }

// Config is a typed experiment configuration: a per-experiment struct
// embedding Base, or Base itself for an experiment with no parameters
// of its own.  Instances handed to the registry are pointers, so
// parameter binding can write through to the fields.
type Config interface {
	// BaseConfig exposes the embedded shared options.
	BaseConfig() *Base
	// Validate checks parameter domains after assignment, where a zero
	// field stands for its default; the CLI rejects the invocation
	// (exit 2) when it fails.
	Validate() error
}
