package cli

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTool invokes the dispatcher and returns (exit code, stdout, stderr).
func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTracesimFlagValidation pins the geometry guard: every impossible
// cache shape must exit 2 with a usage error, never panic (the -ways 0
// and -block 0 cases used to crash on a divide by zero).
func TestTracesimFlagValidation(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.din")
	if code, _, errs := runTool(t, "tracegen", "-bench", "tomcatv", "-n", "100", "-o", trace); code != 0 {
		t.Fatalf("tracegen exited %d: %s", code, errs)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"ways zero", []string{"-ways", "0"}, "ways must be positive"},
		{"block zero", []string{"-block", "0"}, "block size must be positive"},
		{"size zero", []string{"-size", "0"}, "cache size must be positive"},
		{"block not pow2", []string{"-block", "48"}, "power of two"},
		{"size not multiple", []string{"-size", "8200"}, "not a multiple"},
		{"sets not pow2", []string{"-size", "12288"}, "power of two"},
		{"negative ways", []string{"-ways", "-2"}, "ways must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"tracesim", "-trace", trace}, tc.args...)
			code, _, errs := runTool(t, args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errs)
			}
			if !strings.Contains(errs, tc.wantErr) {
				t.Errorf("stderr %q missing %q", errs, tc.wantErr)
			}
			if !strings.Contains(errs, "Usage") {
				t.Errorf("stderr missing usage text")
			}
		})
	}
	// Missing -trace is also a usage error.
	if code, _, _ := runTool(t, "tracesim"); code != 2 {
		t.Errorf("missing -trace: exit %d, want 2", code)
	}
	// Unknown scheme, and geometries only the index function rejects.
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-scheme", "nope"}, "unknown scheme"},
		{[]string{"-scheme", "a2-Hp", "-size", "64", "-ways", "2"}, "needs at least 2 sets"},
		{[]string{"-scheme", "a2-Hp-Sk", "-size", "256", "-ways", "4"}, "only 2 exist"},
		{[]string{"-scheme", "a2", "-size", "68719476736", "-ways", "1"}, "2147483648 lines (size/block) exceed the limit of 1048576"},
		{[]string{"-scheme", "a2", "-size", "68719476736", "-ways", "8"}, "2147483648 lines (size/block) exceed the limit of 1048576"},
		{[]string{"-addrbits", "100"}, "hashes 95 block-address bits"},
	} {
		args := append([]string{"tracesim", "-trace", trace}, tc.args...)
		if code, _, errs := runTool(t, args...); code != 2 || !strings.Contains(errs, tc.wantErr) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, errs, tc.wantErr)
		}
	}
}

// TestTracegenFormats replays tracegen's din output through tracesim
// raw and gzipped: the sniffing reader must see through the gzip, so
// both replays agree.  The retired -format flag is a usage error.
func TestTracegenFormats(t *testing.T) {
	dir := t.TempDir()
	sim := func(path string) string {
		t.Helper()
		code, out, errs := runTool(t, "tracesim", "-trace", path)
		if code != 0 {
			t.Fatalf("tracesim %s exited %d: %s", path, code, errs)
		}
		// Strip the header line naming the file; the statistics below it
		// must be identical raw and gzipped.
		_, rest, ok := strings.Cut(out, "\n")
		if !ok {
			t.Fatalf("tracesim output too short: %q", out)
		}
		return rest
	}

	path := filepath.Join(dir, "m.din")
	code, out, errs := runTool(t, "tracegen", "-bench", "tomcatv", "-n", "5000", "-mem", "-o", path)
	if code != 0 {
		t.Fatalf("tracegen exited %d: %s", code, errs)
	}
	if !strings.Contains(out, "5000 records") {
		t.Errorf("tracegen: %q", out)
	}
	ref := sim(path)
	if !strings.Contains(ref, "accesses        5000") {
		t.Errorf("din replay saw other than 5000 accesses:\n%s", ref)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gzPath := path + ".gz"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := sim(gzPath); got != ref {
		t.Errorf("gzipped din replay differs from raw:\n%s\nvs\n%s", got, ref)
	}

	for _, format := range []string{"bin", "din"} {
		if code, _, errs := runTool(t, "tracegen", "-format", format); code != 2 || !strings.Contains(errs, "-format") {
			t.Errorf("tracegen -format %s: exit %d, stderr %q", format, code, errs)
		}
	}
}

// TestTracegenLeavesNoPartialFile checks the atomic-write contract: a
// run canceled mid-stream must not leave the destination (or a temp
// file) behind.
func TestTracegenLeavesNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.din")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the write loop aborts on first check
	var out, errb bytes.Buffer
	code := Run(ctx, []string{"tracegen", "-bench", "tomcatv", "-n", "1000000", "-o", path}, &out, &errb)
	if code == 0 {
		t.Fatalf("canceled tracegen exited 0 (stderr: %s)", errb.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("canceled tracegen left %q behind", e.Name())
	}
}
