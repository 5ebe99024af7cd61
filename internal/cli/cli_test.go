package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
)

// tinyFlags keeps every experiment fast enough to run the full `all`
// sweep several times.  The stride/rounds flags exist on the union flag
// set of `repro all` (they fan out to fig1/interleave).  -no-cache
// keeps these tests measuring fresh simulation (and keeps them from
// writing a store into the package directory); the cache path has its
// own tests in cache_test.go.
func tinyFlags(extra ...string) []string {
	return append([]string{
		"-instructions", "4000", "-seed", "7", "-maxstride", "160", "-rounds", "5", "-no-cache",
	}, extra...)
}

// runCLI drives the full CLI in-process and returns stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := Run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("repro %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// argsEnv, when set, makes this test binary run the CLI on its
// newline-separated arguments instead of the tests (see runFresh).
const argsEnv = "REPRO_CLI_TEST_ARGS"

// TestMain runs the CLI in place of the tests when runFresh re-executes
// this binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Exit(Run(context.Background(), strings.Split(args, "\n"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runFresh runs the CLI in a process of its own — this test binary,
// re-executed, with env added to its environment — so the process-wide
// trace store and core memo start empty, as in a user's invocation, and
// returns its exit code, stdout and stderr.
func runFresh(t *testing.T, env []string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(append(os.Environ(), env...), argsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("repro %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// TestAllJSONByteIdenticalAcrossWorkers is the determinism headline:
// `repro all -json` emits a byte-identical envelope at GOMAXPROCS 1, 4
// and 16, which size the runner pool and the shard count, with a fixed
// seed.  Each run is a process of its own, so none reads another's
// traces or core simulations from memory.
func TestAllJSONByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite three times")
	}
	all := func(procs int) string {
		args := append([]string{"all"}, tinyFlags("-json")...)
		code, out, errs := runFresh(t, []string{"GOMAXPROCS=" + strconv.Itoa(procs)}, args...)
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d repro %v exited %d: %s", procs, args, code, errs)
		}
		return out
	}
	golden := all(1)
	var env exp.Envelope
	if err := json.Unmarshal([]byte(golden), &env); err != nil {
		t.Fatalf("all -json is not an envelope: %v", err)
	}
	if env.Schema != exp.EnvelopeSchema {
		t.Errorf("envelope schema = %q, want %q", env.Schema, exp.EnvelopeSchema)
	}
	if len(env.Reports) != len(exp.All()) {
		t.Fatalf("envelope has %d reports, want %d", len(env.Reports), len(exp.All()))
	}
	if len(env.Errors) != 0 {
		t.Fatalf("envelope records errors: %+v", env.Errors)
	}
	for i, e := range exp.All() {
		if env.Reports[i].Experiment != e.Name {
			t.Errorf("report %d is %q, want %q (registry order)", i, env.Reports[i].Experiment, e.Name)
		}
		if env.Reports[i].Schema != exp.ReportSchema {
			t.Errorf("report %s schema = %q", e.Name, env.Reports[i].Schema)
		}
	}
	for _, procs := range []int{4, 16} {
		if got := all(procs); got != golden {
			t.Errorf("GOMAXPROCS=%d output differs from GOMAXPROCS=1 (%d vs %d bytes)",
				procs, len(got), len(golden))
		}
	}
}

// TestReportEnvelopeRoundTrip pins the documented JSON contract: the
// single-experiment output decodes into exp.Report, and re-encoding the
// decoded value reproduces the original bytes.
func TestReportEnvelopeRoundTrip(t *testing.T) {
	out := runCLI(t, "fig1", "-instructions", "4000", "-maxstride", "160", "-rounds", "5", "-no-cache", "-json")
	var rep exp.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("fig1 -json does not decode into Report: %v", err)
	}
	if rep.Schema != exp.ReportSchema || rep.Experiment != "fig1" {
		t.Errorf("report identity: schema %q experiment %q", rep.Schema, rep.Experiment)
	}
	if rep.Seed != exp.DefaultSeed || rep.Instructions != 4000 {
		t.Errorf("report metadata: seed %d instructions %d", rep.Seed, rep.Instructions)
	}
	if rep.Table("pathological") == nil {
		t.Error("report missing the pathological table")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		t.Fatal(err)
	}
	if buf.String() != out {
		t.Error("decode -> re-encode did not reproduce the CLI bytes")
	}
}

func TestExperimentRenderSmoke(t *testing.T) {
	out := runCLI(t, "interleave", "-instructions", "4000", "-seed", "7", "-maxstride", "160", "-no-cache")
	for _, want := range []string{"=== interleave ===", "ipoly-16", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("interleave output missing %q", want)
		}
	}
}

func TestListAndHelp(t *testing.T) {
	list := runCLI(t, "list")
	for _, s := range exp.Specs() {
		if !strings.Contains(list, s.Name) {
			t.Errorf("list output missing %q", s.Name)
		}
	}
	// The parameter spec is part of the listing.
	for _, want := range []string{"[-instructions uint=200000]", "[-seed uint=1997]", "[-maxstride int=4096]", "[-rounds int=17]"} {
		if !strings.Contains(list, want) {
			t.Errorf("list output missing param spec %q", want)
		}
	}
	// Output is stable across invocations.
	if again := runCLI(t, "list"); again != list {
		t.Error("repro list output is not stable across invocations")
	}
	help := runCLI(t, "help")
	for _, want := range []string{"repro", "tracegen", "GOMAXPROCS"} {
		if !strings.Contains(help, want) {
			t.Errorf("help output missing %q", want)
		}
	}
	// Bare invocation prints usage too.
	if bare := runCLI(t); !strings.Contains(bare, "Usage") {
		t.Error("bare repro did not print usage")
	}
}

// TestListJSONSchema pins the machine-readable registry spec: it must
// decode into []exp.Spec, cover every registered experiment, and carry
// the shared base parameters first.  CI runs this as its
// `repro list -json` schema gate.
func TestListJSONSchema(t *testing.T) {
	out := runCLI(t, "list", "-json")
	var specs []exp.Spec
	if err := json.Unmarshal([]byte(out), &specs); err != nil {
		t.Fatalf("list -json does not decode into []Spec: %v", err)
	}
	all := exp.All()
	if len(specs) != len(all) {
		t.Fatalf("spec has %d entries, want %d", len(specs), len(all))
	}
	for i, s := range specs {
		if s.Name != all[i].Name {
			t.Errorf("spec %d is %q, want %q (name order)", i, s.Name, all[i].Name)
		}
		if s.Summary == "" {
			t.Errorf("%s: empty summary", s.Name)
		}
		if len(s.Params) < 3 {
			t.Fatalf("%s: only %d params", s.Name, len(s.Params))
		}
		for j, base := range []string{"instructions", "seed", "tracefile"} {
			if s.Params[j].Name != base {
				t.Errorf("%s: param %d = %q, want shared base param %q", s.Name, j, s.Params[j].Name, base)
			}
		}
		for _, p := range s.Params {
			// String params (e.g. tracefile) may default to empty.
			if p.Kind == "" || p.Help == "" || (p.Default == "" && p.Kind != "string") {
				t.Errorf("%s: param %q underspecified: %+v", s.Name, p.Name, p)
			}
		}
	}
	// The decoded spec matches the in-process registry spec.
	want, err := json.Marshal(exp.Specs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("decoded spec differs from the registry spec")
	}
	// When CI (or `make report`) points REPRO_LIST_JSON at the artifact
	// generated by the real binary, check the uploaded bytes too — this
	// covers the cmd/repro wiring the in-process calls above bypass.
	if path := os.Getenv("REPRO_LIST_JSON"); path != "" {
		artifact, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("REPRO_LIST_JSON: %v", err)
		}
		if string(artifact) != out {
			t.Errorf("artifact %s differs from in-process `repro list -json` output", path)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run(context.Background(), []string{"nonsense"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown subcommand exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown subcommand") {
		t.Errorf("stderr %q not diagnostic", stderr.String())
	}
}

// TestBadFlagValues covers the parse and validation failure paths: a
// non-numeric value, an unknown flag, a flag valid only on another
// experiment, and a domain violation caught by Config.Validate — all
// exit 2 without running the experiment.
func TestBadFlagValues(t *testing.T) {
	// Trace files a run cannot use: a missing path, the retired native
	// binary format (its magic and one 20-byte record), and gzip input
	// with a bad header or a valid header over bytes that do not inflate.
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.din")
	native := filepath.Join(dir, "t.trace")
	badHeader := filepath.Join(dir, "bad-header.gz")
	badDeflate := filepath.Join(dir, "bad-deflate.gz")
	for path, b := range map[string]string{
		native:     "IPOLYTR1" + strings.Repeat("\x00", 20),
		badHeader:  "\x1f\x8b\x00\x00garbage",
		badDeflate: "\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xffgarbage",
	} {
		if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"fig1", "-instructions", "many"},
		{"fig1", "-bogus", "1"},
		{"fig1", "-seed", "-1"},
		{"interleave", "-rounds", "5"}, // fig1-only parameter
		{"fig1", "-maxstride", "-5"},   // rejected by Validate
		{"curves", "-max-ways", "-1"},
		{"curves", "-max-ways", "65"},
		{"interleave", "-maxstride", "1"},
		{"fig1", "-rounds", "1"}, // the only round is the warm-up
		{"fig1", "-maxstride", "1"},
		{"sweep", "-shards", "2"}, // the shard count is derived, not a flag
		{"stridescan", "-elems", "0"},
		{"stridescan", "-rounds", "0"},
		{"stridescan", "-stride", "0"},
		{"stridescan", "-rounds", "1"},
		{"stridescan", "-elems", "4194304", "-rounds", "2"},
		{"gates", "-indexbits", "0"},
		{"gates", "-indexbits", "17"},
		{"gates", "-addrbits", "80"},
		{"gates", "-blockbits", "-1"},
		{"all", "-instructions", "x"},  // fanned out to every config
		{"all", "-workers", "2"},       // GOMAXPROCS sizes the pool
		{"fig1", "-workers", "2"},      // likewise
		{"serve", "-job-workers", "2"}, // so does serve's
		{"tracegen", "-text"},          // the native text format is retired
		// So is the native binary format: din is the one tracegen writes.
		{"tracegen", "-format", "bin"},
		// Values that size an allocation past what a job can hold.
		{"replay", "-bench", "gcc", "-scheme", "a2", "-size", "68719476736", "-block", "32", "-ways", "8", "-instructions", "100", "-no-cache"},
		{"fig1", "-rounds", "100000000", "-maxstride", "3"},
		{"fig1", "-maxstride", "1000000000000", "-rounds", "2"},
		{"interleave", "-maxstride", "1048577"},
		{"all", "-maxstride", "1048577"},
		{"list", "-bogus"},
		{"replay", "-tracefile", missing, "-no-cache"},
		{"replay", "-tracefile", native, "-no-cache"},
		{"replay", "-tracefile", native, "-no-cache", "-json"},
		{"replay", "-tracefile", native, "-cache-dir", filepath.Join(dir, "cache"), "-json"},
		{"replay", "-tracefile", badHeader, "-no-cache"},
		{"replay", "-tracefile", badHeader, "-no-cache", "-json"},
		{"replay", "-tracefile", badDeflate, "-no-cache"},
		{"replay", "-tracefile", badDeflate, "-no-cache", "-json"},
		{"missratio", "-tracefile", missing, "-cache-dir", filepath.Join(dir, "cache")},
		{"tracesim", "-trace", missing},
		{"tracesim", "-trace", native},
		{"tracesim", "-trace", badHeader},
		{"tracesim", "-trace", badDeflate},
	} {
		var stdout, stderr bytes.Buffer
		if code := Run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("repro %v exited %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("repro %v wrote %q to stdout, want nothing", args, stdout.String())
		}
	}
}

func TestGatesTool(t *testing.T) {
	out := runCLI(t, "gates", "-indexbits", "7", "-addrbits", "19")
	for _, want := range []string{"polynomial", "Recommended modulus", "Gate network"} {
		if !strings.Contains(out, want) {
			t.Errorf("gates output missing %q", want)
		}
	}
}

// TestStridescanTool pins the tool's exact output at two strides.
func TestStridescanTool(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stride", "512", "-rounds", "3"}, `stride 512 elements (4096 bytes), 64-element vector, 3 rounds

scheme          miss%  distinct sets
a2            100.00%              1
a2-Hx-Sk        0.00%             64
a2-Hp           0.00%             64
a2-Hp-Sk        0.00%             64
`},
		{[]string{"-stride", "1024"}, `stride 1024 elements (8192 bytes), 64-element vector, 17 rounds

scheme          miss%  distinct sets
a2            100.00%              1
a2-Hx-Sk        0.00%             64
a2-Hp           0.00%             64
a2-Hp-Sk        0.00%             64
`},
	} {
		if got := runCLI(t, append([]string{"stridescan"}, tc.args...)...); got != tc.want {
			t.Errorf("stridescan %v:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.din")
	gen := runCLI(t, "tracegen", "-bench", "tomcatv", "-n", "2000", "-o", path)
	if !strings.Contains(gen, "wrote 2000 records") {
		t.Fatalf("tracegen output: %q", gen)
	}
	sim := runCLI(t, "tracesim", "-trace", path)
	for _, want := range []string{"memory references", "3C breakdown", "load miss ratio"} {
		if !strings.Contains(sim, want) {
			t.Errorf("tracesim output missing %q", want)
		}
	}
}

// TestCancelledContextFailsFast ensures the signal-cancellation path
// aborts an experiment instead of running it to completion.
func TestCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	args := append([]string{"fig1"}, "-instructions", "4000", "-maxstride", "160", "-rounds", "5", "-no-cache")
	if code := Run(ctx, args, &stdout, &stderr); code != 1 {
		t.Fatalf("cancelled run exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "context canceled") {
		t.Errorf("stderr %q does not surface cancellation", stderr.String())
	}
}

// failConfig backs the synthetic always-failing experiment below.
type failConfig struct{ exp.Base }

// TestAllFailureSummary registers a synthetic failing experiment and
// checks the `repro all` contract: every other experiment still runs,
// the failure is summarised per experiment on stderr (and recorded in
// the JSON envelope), and the exit code is non-zero.  The registration
// is process-wide, so it is undone on cleanup — other tests assert on
// the clean registry and must pass in any `-shuffle` order.
func TestAllFailureSummary(t *testing.T) {
	t.Cleanup(func() { exp.Unregister("zz-fail") })
	exp.Register(exp.Experiment{
		Name:    "zz-fail",
		Summary: "synthetic failure for the repro-all error path",
		New:     func() exp.Config { return &failConfig{} },
		Run: func(context.Context, exp.Config) (*exp.Report, error) {
			return nil, errors.New("boom: injected failure")
		},
	})
	var stdout, stderr bytes.Buffer
	code := Run(context.Background(), append([]string{"all"}, tinyFlags()...), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("repro all with a failing experiment exited %d, want 1", code)
	}
	for _, want := range []string{"1 of", "experiments failed", "zz-fail", "boom: injected failure"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr summary missing %q in:\n%s", want, stderr.String())
		}
	}
	// The other experiments still rendered.
	if !strings.Contains(stdout.String(), "=== fig1 ===") {
		t.Error("surviving experiments did not run")
	}

	// JSON mode records the failure in the envelope and still exits 1.
	stdout.Reset()
	stderr.Reset()
	code = Run(context.Background(), append([]string{"all"}, tinyFlags("-json")...), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("repro all -json with a failing experiment exited %d, want 1", code)
	}
	var env exp.Envelope
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	want := exp.RunError{Experiment: "zz-fail", Error: "boom: injected failure"}
	if len(env.Errors) != 1 || !reflect.DeepEqual(env.Errors[0], want) {
		t.Errorf("envelope errors = %+v, want [%+v]", env.Errors, want)
	}
	if len(env.Reports) != len(exp.All())-1 {
		t.Errorf("envelope has %d reports, want %d", len(env.Reports), len(exp.All())-1)
	}
}
