// Package cli implements the unified `repro` command line, generated
// from the experiment registry in internal/exp: `repro list` enumerates
// the registered experiments with their parameter specs, `repro <name>`
// derives its flag set from the experiment's typed config, and
// `repro all` iterates the whole registry — there is no per-subcommand
// switch to edit when an experiment is added.  The trace and
// hardware-audit tools (gates, stridescan, tracegen, tracesim) complete
// the binary.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"

	// Register every experiment of the paper reproduction.
	_ "repro/internal/experiments"
)

// Main is the `repro` entry point: it installs signal-driven
// cancellation (SIGINT/SIGTERM abort the worker pool) and dispatches.
func Main(argv []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return Run(ctx, argv, os.Stdout, os.Stderr)
}

// Run dispatches one invocation.  It is Main with injectable context
// and streams so tests can drive the full CLI in-process.
func Run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stdout)
		return 0
	}
	name, rest := argv[0], argv[1:]
	switch name {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	case "list":
		return listMain(rest, stdout, stderr)
	case "all":
		return allMain(ctx, rest, stdout, stderr)
	case "serve":
		return serveMain(ctx, rest, stdout, stderr)
	case "gates":
		return gatesMain(rest, stdout, stderr)
	case "stridescan":
		return stridescanMain(rest, stdout, stderr)
	case "tracegen":
		return tracegenMain(ctx, rest, stdout, stderr)
	case "tracesim":
		return tracesimMain(ctx, rest, stdout, stderr)
	}
	if e, ok := exp.Get(name); ok {
		return oneMain(ctx, e, rest, stdout, stderr)
	}
	fmt.Fprintf(stderr, "repro: unknown subcommand %q (run `repro help`)\n", name)
	return 2
}

// parseFlags parses fs and reports whether to proceed: `-h` prints the
// flag set's usage and exits 0, any other parse error exits 2.
func parseFlags(fs *flag.FlagSet, args []string) (code int, proceed bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// emitJSON writes v through the shared canonical encoder (exp.WriteJSON)
// so CLI output stays byte-comparable with the HTTP service's.
func emitJSON(v any, stdout, stderr io.Writer) int {
	if err := exp.WriteJSON(stdout, v); err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 1
	}
	return 0
}

// oneMain runs a single registered experiment.  Its flag set is derived
// from the experiment's parameter spec: each flag writes straight
// through to the typed config the driver receives.
func oneMain(ctx context.Context, e exp.Experiment, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro "+e.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := e.New()
	for _, p := range exp.ParamsOf(cfg) {
		fs.Var(p, p.Name, p.Help)
	}
	jsonOut := fs.Bool("json", false, "emit the report JSON envelope instead of rendered text")
	cache := addCacheFlags(fs)
	prof := addProfileFlags(fs)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "repro %s: %v\n", e.Name, err)
		return 2
	}
	stopProf := prof.start(stderr)
	defer stopProf()
	rc, closeCache := cache.open(stderr)
	defer closeCache()
	if rc != nil {
		defer func() {
			fmt.Fprintln(stderr, cacheStatsLine("repro "+e.Name, false, rc.Stats(), cache.traceDelta(), cache.digestDelta(), cache.coreDelta(), rc.StoreStats()))
		}()
	}
	rep, err := exp.RunWith(ctx, rc, e, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "repro %s: %v\n", e.Name, err)
		if unusableInput(err) {
			return 2
		}
		return 1
	}
	if *jsonOut {
		return emitJSON(rep, stdout, stderr)
	}
	fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
	render(e.Name, rep, stdout)
	return 0
}

// unusableInput reports whether a run failed on a config the
// experiment rejects, or on a file the user named that does not exist
// or is not a din trace: a usage error, like a bad flag value, rather
// than a failed simulation.
func unusableInput(err error) bool {
	return errors.Is(err, exp.ErrInvalidConfig) || errors.Is(err, fs.ErrNotExist) || errors.Is(err, trace.ErrUnrecognized)
}

// render streams one experiment's rendered report, after its header.
func render(name string, rep *exp.Report, stdout io.Writer) {
	rep.Render(stdout)
	fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, rep.Wall.Round(time.Millisecond))
}

// fanout applies one CLI flag to the same-named parameter of several
// experiment configs — `repro all -maxstride 512` reaches both fig1 and
// interleave.
type fanout struct {
	params []*exp.Param
}

func (f *fanout) String() string {
	if len(f.params) == 0 {
		return ""
	}
	return f.params[0].String()
}

func (f *fanout) Set(s string) error {
	for _, p := range f.params {
		if err := p.Set(s); err != nil {
			return err
		}
	}
	return nil
}

// allMain runs every registered experiment.  The shared flag set is the
// union of every experiment's parameters; a flag fans out to each
// config that declares it.  All experiments are attempted even when
// some fail (unless the context is cancelled, which dooms the rest):
// the per-experiment errors are summarised on stderr — and recorded in
// the JSON envelope — and the exit code is non-zero.
func allMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	all := exp.All()
	fs := flag.NewFlagSet("repro all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgs := make([]exp.Config, len(all))
	fans := make(map[string]*fanout)
	var order []string
	for i, e := range all {
		cfgs[i] = e.New()
		for _, p := range exp.ParamsOf(cfgs[i]) {
			f, ok := fans[p.Name]
			if !ok {
				f = &fanout{}
				fans[p.Name] = f
				order = append(order, p.Name)
			}
			f.params = append(f.params, p)
		}
	}
	for _, name := range order {
		fs.Var(fans[name], name, fans[name].params[0].Help)
	}
	jsonOut := fs.Bool("json", false, "emit the report-set JSON envelope instead of rendered text")
	cache := addCacheFlags(fs)
	prof := addProfileFlags(fs)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	for i, e := range all {
		if err := cfgs[i].Validate(); err != nil {
			fmt.Fprintf(stderr, "repro all: %s: %v\n", e.Name, err)
			return 2
		}
	}
	stopProf := prof.start(stderr)
	defer stopProf()
	rc, closeCache := cache.open(stderr)
	defer closeCache()
	if rc != nil {
		// One cache hit per invocation is re-simulated and byte-compared
		// against the stored report — an integrity resample.  The victim
		// is chosen by the run's own seed, so over time every experiment
		// takes a turn, while any single invocation stays deterministic.
		// The seed is the normalized one the runs simulate and key with,
		// so `-seed 0` and the default seed resample the same experiment.
		seed := exp.Normalize(cfgs[0], all[0].New()).BaseConfig().Seed
		rc.SetVerify(all[int(seed%uint64(len(all)))].Name)
	}

	env := exp.Envelope{Schema: exp.EnvelopeSchema, Reports: []*exp.Report{}}
	for i, e := range all {
		if !*jsonOut {
			// The header goes first, so a long batch shows which
			// experiment is running.
			fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
		}
		rep, err := exp.RunWith(ctx, rc, e, cfgs[i])
		switch {
		case err != nil:
			env.Errors = append(env.Errors, exp.RunError{Experiment: e.Name, Error: err.Error()})
		case *jsonOut:
			env.Reports = append(env.Reports, rep)
		default:
			render(e.Name, rep, stdout)
		}
		if ctx.Err() != nil && len(env.Errors) > 0 {
			// Cancellation dooms every remaining experiment; stop instead
			// of reporting the same error eleven more times.
			break
		}
	}
	if *jsonOut {
		if code := emitJSON(env, stdout, stderr); code != 0 {
			return code
		}
	}
	if rc != nil {
		fmt.Fprintln(stderr, cacheStatsLine("repro all", true, rc.Stats(), cache.traceDelta(), cache.digestDelta(), cache.coreDelta(), rc.StoreStats()))
	}
	if len(env.Errors) > 0 {
		fmt.Fprintf(stderr, "repro all: %d of %d experiments failed:\n", len(env.Errors), len(all))
		for _, f := range env.Errors {
			fmt.Fprintf(stderr, "  %-10s %s\n", f.Experiment, f.Error)
		}
		return 1
	}
	return 0
}

// listMain prints the registry: summaries plus each experiment's
// parameter spec; -json emits the machine-readable form.
func listMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the registry spec as JSON")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if *jsonOut {
		return emitJSON(exp.Specs(), stdout, stderr)
	}
	fmt.Fprintln(stdout, "Experiments:")
	for _, s := range exp.Specs() {
		fmt.Fprintf(stdout, "  %-10s %s\n", s.Name, s.Summary)
		fmt.Fprintf(stdout, "  %-10s ", "")
		for i, p := range s.Params {
			if i > 0 {
				fmt.Fprint(stdout, " ")
			}
			fmt.Fprintf(stdout, "[-%s %s=%s]", p.Name, p.Kind, p.Default)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "repro: reproduction harness for the conflict-avoiding cache (MICRO-30 1997)")
	fmt.Fprintln(w, "\nUsage:\n  repro <experiment> [flags from the experiment's parameter spec] [-json]")
	fmt.Fprintln(w, "  repro all [flags]       run every registered experiment")
	fmt.Fprintln(w, "  repro list [-json]      list experiments with their parameter specs")
	fmt.Fprintln(w, "  repro serve [flags]     serve experiments over HTTP (bounded job queue,")
	fmt.Fprintln(w, "                          result-cache fast path; see `repro serve -h`)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Experiments (run `repro list` for parameters, `repro <name> -h` for help):")
	for _, s := range exp.Specs() {
		fmt.Fprintf(w, "  %-10s %s\n", s.Name, s.Summary)
	}
	fmt.Fprintln(w, "\nTools:")
	fmt.Fprintln(w, "  gates       I-Poly index hardware audit (irreducible polynomials, XOR fan-in)")
	fmt.Fprintln(w, "  stridescan  dissect one stride of the Figure 1 kernel across schemes")
	fmt.Fprintln(w, "  tracegen    write a synthetic benchmark trace in din format")
	fmt.Fprintln(w, "  tracesim    replay a din trace file (optionally .gz) through a cache")
	fmt.Fprintln(w, "\nExperiment sweeps run on a pool of GOMAXPROCS workers; inside each job")
	fmt.Fprintln(w, "the trace is broadcast once to sharded simulation state, its shard count")
	fmt.Fprintln(w, "derived from the cores the pool leaves spare.  Results are bit-identical")
	fmt.Fprintln(w, "at every GOMAXPROCS, and so at every worker and shard count.")
	fmt.Fprintln(w, "\nAny experiment subcommand takes -cpuprofile/-memprofile to write pprof")
	fmt.Fprintln(w, "profiles of the run.")
	fmt.Fprintln(w, "\nRuns are incremental: traces and reports persist in a content-addressed")
	fmt.Fprintln(w, "artifact store (-cache-dir, default "+DefaultCacheDir+"; disable with -no-cache).")
	fmt.Fprintln(w, "`repro all` re-simulates one cached experiment per run as an integrity check.")
}
