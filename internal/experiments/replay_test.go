package experiments

import (
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeMemDinGz writes the first n memory records of (bench, seed) as a
// gzip-compressed din file — the external-tool interchange shape — and
// returns its path.
func writeMemDinGz(t *testing.T, bench string, seed, n uint64) string {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	path := filepath.Join(t.TempDir(), bench+".din.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	dw := trace.NewDinWriter(zw)
	src := &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, seed)}, N: n}
	buf := make([]trace.Rec, 4096)
	for {
		k, eof := src.ReadChunk(buf)
		if err := dw.WriteChunk(buf[:k]); err != nil {
			t.Fatal(err)
		}
		if eof {
			break
		}
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayExternalMatchesSynthetic is the ingestion golden pin: a
// tomcatv memory trace exported to gzipped din and replayed from the
// file must produce bit-identical cache statistics to the in-process
// synthetic replay of the same records.
func TestReplayExternalMatchesSynthetic(t *testing.T) {
	const n = 20_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "tomcatv", base.Seed, n)

	synth, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv"})
	if err != nil {
		t.Fatal(err)
	}
	extBase := base
	extBase.TraceFile = path
	ext, err := RunReplayCtx(context.Background(), ReplayConfig{Base: extBase})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Stats != synth.Stats {
		t.Errorf("external stats %+v != synthetic %+v", ext.Stats, synth.Stats)
	}
	if ext.Records != synth.Records {
		t.Errorf("external records %d != synthetic %d", ext.Records, synth.Records)
	}
	if ext.Format != "din+gzip" {
		t.Errorf("sniffed format %q, want din+gzip", ext.Format)
	}
	if ext.SHA256 == "" {
		t.Error("external result carries no content hash")
	}
}

// TestReplayTimeShardsByteIdentical pins the warmup-overlap stitching:
// with the default warm-up window (which covers every shard's full
// prefix at this scale) shard counts 1, 2 and 8 must agree exactly,
// counter for counter.
func TestReplayTimeShardsByteIdentical(t *testing.T) {
	const n = 30_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "swim", base.Seed, n)
	base.TraceFile = path

	ref, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, TimeShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		got, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, TimeShards: k})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != ref.Stats {
			t.Errorf("timeshards=%d stats %+v != sequential %+v", k, got.Stats, ref.Stats)
		}
		if got.Shards != k {
			t.Errorf("timeshards=%d ran %d shards", k, got.Shards)
		}
	}
}

// TestReplayShortWarmupWithinBound runs a deliberately undersized
// warm-up window and checks the documented error model: every counter
// within ErrorBound of the sequential replay.
func TestReplayShortWarmupWithinBound(t *testing.T) {
	const n = 30_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}

	ref, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv", TimeShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunReplayCtx(context.Background(), ReplayConfig{Base: base, Bench: "tomcatv", TimeShards: 8, Warmup: 512})
	if err != nil {
		t.Fatal(err)
	}
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	if d := diff(got.Stats.Misses, ref.Stats.Misses); d > got.ErrorBound {
		t.Errorf("short-warmup miss delta %d exceeds bound %d", d, got.ErrorBound)
	}
	if got.Stats.Accesses != ref.Stats.Accesses {
		t.Errorf("access counts differ (%d vs %d): shard ranges must partition the trace", got.Stats.Accesses, ref.Stats.Accesses)
	}
}

// TestExternalTraceThroughRegisteredExperiments replays one gzipped din
// file through two registered experiments (threec and colassoc) and
// checks each matches its synthetic twin — the trace file is a drop-in
// replacement for the benchmark it was exported from.
func TestExternalTraceThroughRegisteredExperiments(t *testing.T) {
	const n = 10_000
	base := exp.Base{Instructions: n, Seed: exp.DefaultSeed}
	path := writeMemDinGz(t, "tomcatv", base.Seed, n)
	extBase := base
	extBase.TraceFile = path

	t.Run("threec", func(t *testing.T) {
		synth, err := RunThreeCCtx(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := RunThreeCCtx(context.Background(), extBase)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Conventional) != 1 || len(ext.IPoly) != 1 {
			t.Fatalf("external run has %d+%d rows, want 1+1", len(ext.Conventional), len(ext.IPoly))
		}
		var want *ThreeCRow
		for i := range synth.Conventional {
			if synth.Conventional[i].Name == "tomcatv" {
				want = &synth.Conventional[i]
			}
		}
		if want == nil {
			t.Fatal("no tomcatv row in synthetic run")
		}
		got := ext.Conventional[0]
		if got.Compulsory != want.Compulsory || got.Capacity != want.Capacity || got.Conflict != want.Conflict {
			t.Errorf("external tomcatv 3C row %+v != synthetic %+v", got, *want)
		}
	})

	t.Run("colassoc", func(t *testing.T) {
		ext, err := RunColAssocCtx(context.Background(), extBase)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Bench) != 1 || ext.Bench[0] != filepath.Base(path) {
			t.Fatalf("external colassoc rows %v, want just %s", ext.Bench, filepath.Base(path))
		}
	})
}

// TestCPUExperimentsRejectTraceFile pins the trace-file rule fixed at
// registration: the experiments needing full instruction records or
// their own stride patterns reject a config naming a trace file, before
// anything reads it, and the memory-trace experiments accept one.
func TestCPUExperimentsRejectTraceFile(t *testing.T) {
	synthetic := map[string]bool{"ablate": true, "fig1": true, "interleave": true, "options31": true, "table2": true, "table3": true}
	for _, e := range exp.All() {
		cfg := e.New()
		cfg.BaseConfig().TraceFile = "/nonexistent.din"
		err := e.Validate(cfg)
		switch {
		case synthetic[e.Name] && (err == nil || !strings.Contains(err.Error(), "-tracefile is not supported")):
			t.Errorf("%s: Validate = %v, want the -tracefile rejection", e.Name, err)
		case !synthetic[e.Name] && err != nil:
			t.Errorf("%s: Validate = %v, want a trace file accepted", e.Name, err)
		}
		if !synthetic[e.Name] {
			continue
		}
		if _, err := exp.RunWith(context.Background(), nil, e, cfg); !errors.Is(err, exp.ErrInvalidConfig) {
			t.Errorf("%s: RunWith = %v, want an invalid-config error", e.Name, err)
		}
	}
}

// TestReplayValidateRejectsImpossibleGeometry pins the usage-error path
// for geometries index.New cannot build: Validate reports the reason
// instead of panicking, which is what lets the CLI exit 2 and serve
// answer 400.
func TestReplayValidateRejectsImpossibleGeometry(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ReplayConfig
		wantErr string
	}{
		{"addrbits 100", ReplayConfig{Bench: "gcc", AddrBits: 100}, "hashes 95 block-address bits"},
		{"addrbits 6", ReplayConfig{Bench: "gcc", AddrBits: 6}, "hashes 1 block-address bits"},
		{"addrbits -5", ReplayConfig{Bench: "gcc", AddrBits: -5}, "hashes -10 block-address bits"},
		{"one-set a2-Hp", ReplayConfig{Scheme: "a2-Hp", Size: 64, Block: 32, Ways: 2}, "needs at least 2 sets"},
		{"4-way two-set a2-Hp-Sk", ReplayConfig{Scheme: "a2-Hp-Sk", Size: 256, Block: 32, Ways: 4}, "only 2 exist"},
		// The line bound stops this geometry before index.New sees it.
		{"31 index bits", ReplayConfig{Scheme: "a2", Size: 1 << 36, Block: 32, Ways: 1}, "2147483648 lines (size/block) exceed the limit of 1048576"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
