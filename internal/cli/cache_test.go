package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/trace"
)

// cachedFlags is tinyFlags with the artifact store enabled at dir
// instead of disabled.
func cachedFlags(dir string, extra ...string) []string {
	return append([]string{
		"-instructions", "4000", "-seed", "7", "-maxstride", "160", "-rounds", "5",
		"-cache-dir", dir,
	}, extra...)
}

// TestCacheWarmRunByteIdentical is the incremental-`repro all` headline:
// a second run against a populated store emits a byte-identical JSON
// envelope on stdout, serves every report from cache, and passes the
// integrity resample.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	dir := t.TempDir()

	var cold, coldErr bytes.Buffer
	if code := Run(context.Background(), append([]string{"all"}, cachedFlags(dir, "-json")...), &cold, &coldErr); code != 0 {
		t.Fatalf("cold run exited %d: %s", code, coldErr.String())
	}
	if s := coldErr.String(); !strings.Contains(s, "0 hits") || !strings.Contains(s, "integrity resample: not cached") {
		t.Errorf("cold stderr stats unexpected: %q", s)
	}

	var warm, warmErr bytes.Buffer
	if code := Run(context.Background(), append([]string{"all"}, cachedFlags(dir, "-json")...), &warm, &warmErr); code != 0 {
		t.Fatalf("warm run exited %d: %s", code, warmErr.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm envelope differs from cold (%d vs %d bytes)", warm.Len(), cold.Len())
	}
	// Seed 7 against the 14-experiment registry selects options31 for
	// the resample; every report (including it) counts as a hit.
	n := len(exp.All())
	s := warmErr.String()
	for _, want := range []string{
		"cache 14 hits, 0 misses, 0 stored",
		"integrity resample options31: ok",
		// Disk-tier trace traffic is reported too; exact counts depend on
		// what earlier in-process runs left in the shared memory store, so
		// only the segment's presence is pinned.
		" disk hits, ",
		" disk puts",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("warm stderr missing %q (registry size %d): %q", want, n, s)
		}
	}
}

// TestCoreMemoSummary pins the cores clause of the cache summary line
// on cold runs, each a process of its own.  A batch simulates each core
// configuration once: table3 reads table2's simulations, and options31
// and ablate share cells with table2, so `repro all` runs 124 core
// simulations where it would run 240 without the memo.  table3 on its
// own simulates Table 2's whole grid.
func TestCoreMemoSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append([]string{"all", "-json"}, cachedFlags(t.TempDir())...), "; cores: 124 simulated, 116 memo hits; "},
		{[]string{"table3", "-json", "-instructions", "4000", "-seed", "7", "-cache-dir", t.TempDir()}, "; cores: 108 simulated, 0 memo hits; "},
	} {
		code, _, errs := runFresh(t, nil, tc.args...)
		if code != 0 {
			t.Fatalf("repro %v exited %d: %s", tc.args, code, errs)
		}
		if !strings.Contains(errs, tc.want) {
			t.Errorf("repro %s: stderr %q lacks %q", tc.args[0], errs, tc.want)
		}
	}
}

// TestResampleVictimFollowsNormalizedSeed runs `repro all` on one store
// with -seed 0 and with the default seed it normalizes to: the two
// invocations simulate and key identically, so they must resample the
// same experiment.
func TestResampleVictimFollowsNormalizedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite three times")
	}
	dir := t.TempDir()
	victimRE := regexp.MustCompile(`integrity resample (\w+): ok`)
	victim := func(seed string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"all", "-json", "-seed", seed, "-instructions", "4000", "-maxstride", "160", "-rounds", "5", "-cache-dir", dir}
		if code := Run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("repro all -seed %s exited %d: %s", seed, code, stderr.String())
		}
		m := victimRE.FindStringSubmatch(stderr.String())
		if m == nil {
			return ""
		}
		return m[1]
	}
	victim("1997") // fill the store
	zero, def := victim("0"), victim("1997")
	if zero == "" || zero != def {
		t.Errorf("-seed 0 resampled %q, the default seed %d resampled %q", zero, exp.DefaultSeed, def)
	}
}

// TestCacheDivergenceInjection forges a wrong-but-well-formed cached
// report at the resample target's exact address and checks the warm run
// fails loudly instead of trusting it.  The store's own hashes verify
// (the forgery went through Put), so only the resample can catch it.
func TestCacheDivergenceInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	dir := t.TempDir()
	var cold, coldErr bytes.Buffer
	if code := Run(context.Background(), append([]string{"all"}, cachedFlags(dir, "-json")...), &cold, &coldErr); code != 0 {
		t.Fatalf("cold run exited %d: %s", code, coldErr.String())
	}

	// Reconstruct the resample target's content address the same way the
	// cache does: its registered experiment plus the run's flag values.
	e, ok := exp.Get("options31")
	if !ok {
		t.Fatal("options31 not registered")
	}
	cfg := e.New()
	for _, p := range exp.ParamsOf(cfg) {
		for name, v := range map[string]string{"instructions": "4000", "seed": "7"} {
			if p.Name == name {
				if err := p.Set(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	key, err := exp.ReportKey(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := d.Get(exp.ReportKind, key, exp.ReportRev(e))
	if !ok {
		t.Fatal("cold run did not store the resample target (key derivation drifted?)")
	}
	var rep exp.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Notes = append(rep.Notes, "forged") // plausible, decodes fine, wrong bytes
	forged, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(exp.ReportKind, key, exp.ReportRev(e), nil, forged); err != nil {
		t.Fatal(err)
	}

	var warm, warmErr bytes.Buffer
	code := Run(context.Background(), append([]string{"all"}, cachedFlags(dir, "-json")...), &warm, &warmErr)
	if code != 1 {
		t.Fatalf("warm run over a forged cache exited %d, want 1: %s", code, warmErr.String())
	}
	s := warmErr.String()
	for _, want := range []string{"integrity resample diverged", "DIVERGED"} {
		if !strings.Contains(s, want) {
			t.Errorf("stderr missing %q: %q", want, s)
		}
	}
}

// TestNoCacheWritesNothing pins the -no-cache contract: no store
// directory appears and no stats line is printed.
func TestNoCacheWritesNothing(t *testing.T) {
	dir := t.TempDir() + "/never-created"
	var stdout, stderr bytes.Buffer
	args := []string{"stddev", "-instructions", "4000", "-seed", "7", "-cache-dir", dir, "-no-cache"}
	if code := Run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-no-cache still created %s", dir)
	}
}

// TestSingleExperimentUsesCache checks oneMain participates in the same
// store `repro all` populates: a cached run emits the same JSON.
func TestSingleExperimentUsesCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"stddev", "-instructions", "4000", "-seed", "7", "-cache-dir", dir, "-json"}
	cold := runCLI(t, args...)
	warm := runCLI(t, args...)
	if cold != warm {
		t.Errorf("warm single-experiment output differs:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("cache directory missing after cached run: %v", err)
	}
}

// freshDigests installs a new process-wide digest memo for the test, as
// a new process would start with, whose clock makes every file look
// older than the margin, so its entries are trusted without waiting.
func freshDigests(t *testing.T) *trace.DigestMemo {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the digest memo needs a stat with inode and ctime")
	}
	old := trace.Digests
	trace.Digests = trace.NewDigestMemo(nil, func() time.Time { return time.Now().Add(time.Hour) })
	t.Cleanup(func() { trace.Digests = old })
	return trace.Digests
}

// TestSyntheticExperimentRejectsTraceFile pins where a -tracefile is
// refused: an experiment that simulates synthetic streams only exits 2
// with empty stdout before its result key hashes the file, while `repro
// all` runs the memory-trace experiments on the file, lists the others
// as failed and exits 1.
func TestSyntheticExperimentRejectsTraceFile(t *testing.T) {
	tf := filepath.Join(t.TempDir(), "t.din")
	runCLI(t, "tracegen", "-bench", "tomcatv", "-n", "3000", "-mem", "-o", tf)
	m := freshDigests(t)
	for _, name := range []string{"ablate", "fig1", "interleave", "options31", "table2", "table3"} {
		code, out, errs := runTool(t, name, "-tracefile", tf, "-cache-dir", t.TempDir())
		if code != 2 || out != "" {
			t.Errorf("repro %s -tracefile: exit %d, stdout %q, want 2 and none", name, code, out)
		}
		for _, want := range []string{"invalid config: -tracefile is not supported", "; digests: 0 hashed, 0 memo hits; "} {
			if !strings.Contains(errs, want) {
				t.Errorf("repro %s -tracefile: stderr %q lacks %q", name, errs, want)
			}
		}
	}
	if st := m.Stats(); st.Hashes != 0 {
		t.Errorf("rejected runs hashed the trace file %d times, want 0", st.Hashes)
	}

	code, out, errs := runTool(t, "all", "-tracefile", tf, "-instructions", "3000", "-no-cache", "-json")
	if code != 1 {
		t.Fatalf("repro all -tracefile exited %d, want 1: %s", code, errs)
	}
	var env exp.Envelope
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatal(err)
	}
	var ran, failed []string
	for _, r := range env.Reports {
		ran = append(ran, r.Experiment)
	}
	for _, f := range env.Errors {
		failed = append(failed, f.Experiment)
	}
	if got, want := strings.Join(ran, " "), "colassoc curves holes missratio replay stddev sweep threec"; got != want {
		t.Errorf("repro all -tracefile ran %q, want %q", got, want)
	}
	if got, want := strings.Join(failed, " "), "ablate fig1 interleave options31 table2 table3"; got != want {
		t.Errorf("repro all -tracefile failed %q, want %q", got, want)
	}
}

// TestReplayTraceFileHashCounts pins how often `repro replay
// -tracefile` reads the whole trace file: once on a cold run, whose
// result key and trace profile share the digest, and never on a cached
// rerun by a later process, which finds the digest in the store.  Both
// print the same report and say on stderr what the store served, and
// -no-cache prints the report too, with no summary, and writes nothing.
func TestReplayTraceFileHashCounts(t *testing.T) {
	tf := filepath.Join(t.TempDir(), "t.din")
	runCLI(t, "tracegen", "-bench", "tomcatv", "-n", "3000", "-mem", "-o", tf)
	dir := t.TempDir()
	args := []string{"replay", "-json", "-tracefile", tf, "-instructions", "3000", "-cache-dir", dir}
	replay := func(args []string, summary ...string) string {
		t.Helper()
		code, out, errs := runTool(t, args...)
		if code != 0 {
			t.Fatalf("repro %v exited %d: %s", args, code, errs)
		}
		for _, want := range summary {
			if !strings.Contains(errs, want) {
				t.Errorf("repro %v: stderr %q lacks %q", args, errs, want)
			}
		}
		if len(summary) == 0 && errs != "" {
			t.Errorf("repro %v: stderr %q, want none", args, errs)
		}
		return out
	}

	m := freshDigests(t)
	cold := replay(args, "repro replay: cache 0 hits, 1 misses, 1 stored; traces: ", "; digests: 1 hashed, ")
	if st := m.Stats(); st.Hashes != 1 {
		t.Errorf("cold replay hashed the trace file %d times, want 1 (%+v)", st.Hashes, st)
	}
	m = freshDigests(t)
	if cached := replay(args, "repro replay: cache 1 hits, 0 misses, 0 stored; traces: ", "; digests: 0 hashed, 1 memo hits; cores: 0 simulated, 0 memo hits; store: "); cached != cold {
		t.Errorf("cached replay differs:\n--- cold\n%s\n--- cached\n%s", cold, cached)
	}
	if st := m.Stats(); st.Hashes != 0 || st.Hits != 1 {
		t.Errorf("cached replay: %+v, want 0 hashes and 1 memo hit", st)
	}

	off := filepath.Join(t.TempDir(), "never-created")
	if fresh := replay(append(args, "-no-cache", "-cache-dir", off)); fresh != cold {
		t.Errorf("-no-cache replay differs from the cached one")
	}
	if _, err := os.Stat(off); !os.IsNotExist(err) {
		t.Errorf("-no-cache replay created %s", off)
	}
}
