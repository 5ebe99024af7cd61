package cli

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/trace"
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

// tracesim3C runs tracesim on path with args and returns its 3C counts.
func tracesim3C(t *testing.T, path string, args ...string) (compulsory, capacity, conflict uint64) {
	t.Helper()
	code, out, errs := runTool(t, append([]string{"tracesim", "-trace", path}, args...)...)
	if code != 0 {
		t.Fatalf("tracesim %s exited %d: %s", path, code, errs)
	}
	if !strings.Contains(out, "classified load misses:") {
		t.Errorf("tracesim header does not say it classifies load misses:\n%s", out)
	}
	counts := map[string]*uint64{"compulsory": &compulsory, "capacity": &capacity, "conflict": &conflict}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && counts[f[0]] != nil {
			n, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				t.Fatalf("tracesim line %q: %v", line, err)
			}
			*counts[f[0]] = n
		}
	}
	return compulsory, capacity, conflict
}

// TestTracesimClassifiesLoadsLikeThreeC pins tracesim's 3C breakdown to
// threec's rule, loads only.  A store never fills the write-through,
// no-allocate cache, so it must not fill the classifier's shadow
// either: a store and then a load of one block is one compulsory miss,
// not a conflict miss.  On a generated trace the three counts sum to
// the load misses of an independent replay and give threec's
// percentages exactly, under both of threec's indexings.
func TestTracesimClassifiesLoadsLikeThreeC(t *testing.T) {
	dir := t.TempDir()
	two := filepath.Join(dir, "two.din")
	if err := os.WriteFile(two, []byte("1 1000\n0 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if comp, capa, conf := tracesim3C(t, two); comp != 1 || capa != 0 || conf != 0 {
		t.Errorf("store then load of one block: compulsory %d, capacity %d, conflict %d; want 1, 0, 0", comp, capa, conf)
	}

	path := filepath.Join(dir, "g.din")
	if code, _, errs := runTool(t, "tracegen", "-bench", "gcc", "-n", "20000", "-mem", "-o", path); code != 0 {
		t.Fatalf("tracegen exited %d: %s", code, errs)
	}
	var rep exp.Report
	if err := json.Unmarshal([]byte(runCLI(t, "threec", "-tracefile", path, "-instructions", "20000", "-no-cache", "-json")), &rep); err != nil {
		t.Fatal(err)
	}
	tab := rep.Table("threec")
	if tab == nil {
		t.Fatal("threec report has no threec table")
	}
	for _, tc := range []struct {
		scheme, col string
		place       index.Placement
	}{
		{"a2", "conv", nil},
		// 128 sets; tracesim's default -addrbits 19 leaves 14 block bits.
		{"a2-Hp-Sk", "Hp", index.MustNew(index.SchemeIPolySk, 7, 2, 14)},
	} {
		f, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: tc.place})
		c.ReplaySource(f, 0)
		f.Close()
		st := c.Stats()
		loads := st.ReadHits + st.ReadMisses
		comp, capa, conf := tracesim3C(t, path, "-scheme", tc.scheme)
		if sum := comp + capa + conf; sum != st.ReadMisses {
			t.Errorf("%s: 3C counts sum to %d, want the %d load misses", tc.scheme, sum, st.ReadMisses)
		}
		for _, k := range []struct {
			kind string
			n    uint64
		}{{"compulsory", comp}, {"capacity", capa}, {"conflict", conf}} {
			want, ok := tab.Float("g.din", tc.col+" "+k.kind)
			if got := 100 * float64(k.n) / float64(loads); !ok || got != want {
				t.Errorf("%s %s: tracesim gives %v%% of loads, threec %v%%", tc.scheme, k.kind, got, want)
			}
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
