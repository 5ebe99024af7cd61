package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// cacheDemoExperiment returns a synthetic experiment whose Run counts
// invocations — the probe for every hit/miss assertion below.
func cacheDemoExperiment(runs *atomic.Int64) Experiment {
	return Experiment{
		Name:    "demo-cache",
		Summary: "cache probe",
		New:     newDemo,
		Rev:     1,
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			runs.Add(1)
			c := cfg.(*demoConfig)
			rep := &Report{}
			rep.AddTable(NewTable("t", "", StrCol("k"), IntCol("rounds")).
				AddRow("run", c.Rounds))
			return rep, nil
		},
	}
}

// openCache opens a result cache over a store in dir.
func openCache(t *testing.T, dir string) *ResultCache {
	t.Helper()
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return NewResultCache(d)
}

func TestReportKeyNormalizationEquivalence(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	zero := newDemo().(*demoConfig)
	zero.Instructions, zero.Seed = 0, 0 // zero fields: Normalize fills defaults
	explicit := newDemo().(*demoConfig)
	explicit.Instructions, explicit.Seed = DefaultInstructions, DefaultSeed
	kz, err := ReportKey(e, zero)
	if err != nil {
		t.Fatal(err)
	}
	ke, err := ReportKey(e, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if kz != ke {
		t.Error("zero config and explicit defaults hash differently")
	}
	if zero.Instructions != 0 || zero.Seed != 0 {
		t.Error("ReportKey mutated the caller's config")
	}
	explicit.Rounds++
	if kr, _ := ReportKey(e, explicit); kr == ke {
		t.Error("distinct configs share a report key")
	}
}

func TestCanonicalConfigPreservesUint64Seed(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	cfg := newDemo().(*demoConfig)
	cfg.Seed = math.MaxUint64 // would round-trip wrong through float64
	canon, err := CanonicalConfig(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(canon, []byte("18446744073709551615")) {
		t.Errorf("uint64 seed lost precision in canonical form: %s", canon)
	}
}

func TestCachedRunSimulatesOnce(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	c := openCache(t, t.TempDir())

	cold, err := RunWith(context.Background(), c, e, newDemo())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(context.Background(), c, e, newDemo())
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment simulated %d times, want 1", got)
	}
	cb, _ := json.Marshal(cold)
	wb, _ := json.Marshal(warm)
	if !bytes.Equal(cb, wb) {
		t.Errorf("cached report differs from fresh:\n  cold %s\n  warm %s", cb, wb)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRevBumpInvalidates(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	c := openCache(t, t.TempDir())
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}
	e.Rev++
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("rev bump did not invalidate: %d simulations, want 2", got)
	}
}

func TestIntegrityResampleOK(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	c := openCache(t, t.TempDir())
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}
	c.SetVerify(e.Name)
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatalf("matching resample errored: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("resample did not re-simulate: %d runs, want 2", got)
	}
	st := c.Stats()
	if st.Resampled != e.Name || !st.ResampleOK {
		t.Errorf("resample stats = %+v", st)
	}
	// The resample is one-shot: a further hit serves from cache.
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("resample re-ran on a later hit: %d runs", got)
	}
}

func TestIntegrityResampleDivergenceFailsLoudly(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	dir := t.TempDir()
	c := openCache(t, dir)
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}

	// Forge a plausible-but-wrong cached report at the same address: the
	// store's own hashes verify (it was Put normally), only the resample
	// can catch it.
	key, err := ReportKey(e, newDemo())
	if err != nil {
		t.Fatal(err)
	}
	forged := &Report{Schema: ReportSchema, Experiment: e.Name,
		Instructions: DefaultInstructions, Seed: DefaultSeed}
	forged.AddTable(NewTable("t", "", StrCol("k"), IntCol("rounds")).AddRow("run", 999))
	blob, _ := json.Marshal(forged)
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ReportKind, key, ReportRev(e), nil, blob); err != nil {
		t.Fatal(err)
	}

	c.SetVerify(e.Name)
	_, err = RunWith(context.Background(), c, e, newDemo())
	if err == nil {
		t.Fatal("diverging cached report served without error")
	}
	if !strings.Contains(err.Error(), "integrity") {
		t.Errorf("divergence error does not say integrity: %v", err)
	}
	if st := c.Stats(); st.Resampled != e.Name || st.ResampleOK {
		t.Errorf("divergence stats = %+v", st)
	}
}

func TestCorruptCachedReportRecomputes(t *testing.T) {
	var runs atomic.Int64
	e := cacheDemoExperiment(&runs)
	dir := t.TempDir()
	c := openCache(t, dir)
	if _, err := RunWith(context.Background(), c, e, newDemo()); err != nil {
		t.Fatal(err)
	}

	// An intact blob that decodes to the wrong experiment: client-level
	// drift the store's hash check cannot see.  Must degrade to recompute.
	key, _ := ReportKey(e, newDemo())
	alien := &Report{Schema: ReportSchema, Experiment: "somebody-else"}
	blob, _ := json.Marshal(alien)
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ReportKind, key, ReportRev(e), nil, blob); err != nil {
		t.Fatal(err)
	}

	rep, err := RunWith(context.Background(), c, e, newDemo())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != e.Name {
		t.Errorf("served a foreign report: %+v", rep)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("mismatched cached report not recomputed: %d runs", got)
	}
}
