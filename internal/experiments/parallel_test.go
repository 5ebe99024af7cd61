package experiments

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyBase returns options scaled for the GOMAXPROCS determinism
// tests, which run every experiment several times.
func tinyBase() exp.Base {
	return exp.Base{Instructions: 8_000, Seed: 7}
}

// tinyFig1 returns the fig1 sweep at determinism-test scale.
func tinyFig1() Fig1Config {
	return Fig1Config{Base: tinyBase(), Rounds: 5, MaxStride: 300}
}

// setGOMAXPROCS sets GOMAXPROCS, which sizes the runner pool and the
// shard budget, to n until the test ends.  GOMAXPROCS is process-wide,
// so a test calling it must not run in parallel.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// asJSON canonicalises a result for byte-level comparison.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fig1Stride measures one stride's miss ratio of the 64×8-byte vector
// walk through an 8 KB 2-way cache with the given placement.  The
// kernel's records are materialized into recs (a reusable scratch
// buffer, grown as needed) and replayed through the batched access
// path; the returned buffer is handed back for the next stride.
func fig1Stride(place index.Placement, stride uint64, rounds int, recs []trace.Rec) (float64, []trace.Rec) {
	const elems = 64
	c := cache.New(cache.Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: place, WriteAllocate: false,
	})
	ss := workload.NewStrideStream(0, stride*8, elems, rounds)
	if total := ss.Total(); cap(recs) < total {
		recs = make([]trace.Rec, total)
	} else {
		recs = recs[:total]
	}
	n, _ := ss.ReadChunk(recs)
	recs = recs[:n]
	// Warm-up round excluded from the measured ratio.
	c.AccessStream(recs[:elems])
	c.ResetStats()
	c.AccessStream(recs[elems:])
	return c.Stats().MissRatio(), recs
}

// RunFig1Serial is the original single-threaded driver on one
// cache.Cache per stride and scheme, kept as the golden reference the
// Grid-based parallel driver is pinned against (see
// TestFig1ParallelMatchesSerial).
func RunFig1Serial(cfg Fig1Config) Fig1Result {
	cfg = withDefaults(cfg, DefaultFig1Config)
	res := Fig1Result{
		Histograms:   make(map[index.Scheme]*stats.Histogram),
		Pathological: make(map[index.Scheme]int),
		Strides:      cfg.MaxStride - 1,
	}
	var recs []trace.Rec
	for _, scheme := range fig1Schemes() {
		place := fig1Placement(scheme)
		h := stats.NewHistogram(10)
		res.Pathological[scheme] = 0
		for s := 1; s < cfg.MaxStride; s++ {
			var mr float64
			mr, recs = fig1Stride(place, uint64(s), cfg.Rounds, recs)
			h.Add(mr)
			if mr > 0.5 {
				res.Pathological[scheme]++
			}
		}
		res.Histograms[scheme] = h
	}
	return res
}

// TestFig1ParallelMatchesSerial pins the runner-based Figure 1 sweep
// against the retained serial driver: the engine must be a pure
// performance change, never a results change.
func TestFig1ParallelMatchesSerial(t *testing.T) {
	serial := asJSON(t, RunFig1Serial(tinyFig1()))
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		got := asJSON(t, runOK(t, RunFig1Ctx, tinyFig1()))
		if got != serial {
			t.Errorf("GOMAXPROCS=%d: parallel result diverged from serial driver\n got %s\nwant %s",
				procs, got, serial)
		}
	}
}

// tinyRegistryConfig builds the determinism-scale config for a
// registered experiment by assigning its parameters through the spec —
// the same write path the CLI flags use.
func tinyRegistryConfig(t *testing.T, e exp.Experiment) exp.Config {
	t.Helper()
	cfg := e.New()
	scale := map[string]string{
		"instructions": "8000",
		"seed":         "7",
		"maxstride":    "300",
		"rounds":       "5",
	}
	for _, p := range exp.ParamsOf(cfg) {
		if v, ok := scale[p.Name]; ok {
			if err := p.Set(v); err != nil {
				t.Fatalf("%s: set %s: %v", e.Name, p.Name, err)
			}
		}
	}
	return cfg
}

// TestExperimentsDeterministicAcrossWorkers runs every registered
// experiment through the registry path at GOMAXPROCS 1, 4 and 16 —
// which sizes the runner pool and the shard count — and requires
// byte-identical report JSON.  Each run starts on an empty core memo,
// so every run simulates rather than reading the first one's cores.
// GOMAXPROCS is process-wide, so the subtests run one at a time.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	if len(exp.All()) == 0 {
		t.Fatal("registry is empty")
	}
	for _, e := range exp.All() {
		t.Run(e.Name, func(t *testing.T) {
			run := func(procs int) string {
				setGOMAXPROCS(t, procs)
				emptyCores(t)
				rep, err := exp.RunWith(context.Background(), nil, e, tinyRegistryConfig(t, e))
				if err != nil {
					t.Fatal(err)
				}
				// Wall is execution metadata excluded from the JSON
				// envelope, so this compares simulation payload only.
				return asJSON(t, rep)
			}
			golden := run(1)
			for _, procs := range []int{4, 16} {
				if got := run(procs); got != golden {
					t.Errorf("GOMAXPROCS=%d output differs from GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// TestGridDriversDeterministicAcrossWorkers pins the five grid-backed
// drivers (sweep, missratio, stddev, options31, holes — fig1 is covered
// by TestFig1ParallelMatchesSerial above) at GOMAXPROCS 1, 4 and 16:
// shifting worker-level parallelism from per-config jobs to
// per-benchmark grid jobs must leave every result byte-identical at any
// pool size.  Each run starts on an empty core memo, so options31's
// runs all simulate.  GOMAXPROCS is process-wide, so the subtests run
// one at a time.
func TestGridDriversDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	ctx := context.Background()
	drivers := []struct {
		name string
		run  func() (any, error)
	}{
		{"sweep", func() (any, error) { return RunSweepCtx(ctx, tinyBase()) }},
		{"missratio", func() (any, error) { return RunOrgsCtx(ctx, tinyBase()) }},
		{"stddev", func() (any, error) { return RunStdDevCtx(ctx, tinyBase()) }},
		{"options31", func() (any, error) { return RunOptions31Ctx(ctx, tinyBase()) }},
		{"holes", func() (any, error) { return RunHolesCtx(ctx, tinyBase()) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			run := func(procs int) string {
				setGOMAXPROCS(t, procs)
				emptyCores(t)
				res, err := d.run()
				if err != nil {
					t.Fatal(err)
				}
				return asJSON(t, res)
			}
			golden := run(1)
			for _, procs := range []int{4, 16} {
				if got := run(procs); got != golden {
					t.Errorf("GOMAXPROCS=%d output differs from GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// TestGridDriversDeterministicAcrossShards pins intra-trace sharding:
// every driver that streams its trace through runGrid must produce
// byte-identical results at forced shard counts 1, 2, 3 and 8 crossed
// with GOMAXPROCS 1 and 4, which sizes the runner pool.  Like the pool
// size, the shard count is a pure execution detail — the point-order
// stats merge makes any partition invisible in the output.  colassoc
// and threec ride two consumers each, so they shard at most two ways;
// ablate and holes ride one each and clamp to a single shard.  Each run
// starts on an empty core memo, so ablate's and options31's core runs
// simulate every time.  It sets testShards and GOMAXPROCS, so neither
// it nor its subtests may run in parallel with other tests.
func TestGridDriversDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	t.Cleanup(func() { testShards = 0 })
	ctx := context.Background()
	drivers := []struct {
		name string
		run  func() (any, error)
	}{
		{"sweep", func() (any, error) { return RunSweepCtx(ctx, tinyBase()) }},
		{"missratio", func() (any, error) { return RunOrgsCtx(ctx, tinyBase()) }},
		{"stddev", func() (any, error) { return RunStdDevCtx(ctx, tinyBase()) }},
		{"options31", func() (any, error) { return RunOptions31Ctx(ctx, tinyBase()) }},
		{"curves", func() (any, error) { return RunCurvesCtx(ctx, CurvesConfig{Base: tinyBase()}) }},
		{"colassoc", func() (any, error) { return RunColAssocCtx(ctx, tinyBase()) }},
		{"ablate", func() (any, error) { return RunAblateCtx(ctx, tinyBase()) }},
		{"holes", func() (any, error) { return RunHolesCtx(ctx, tinyBase()) }},
		{"threec", func() (any, error) { return RunThreeCCtx(ctx, tinyBase()) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			run := func(procs, s int) string {
				setGOMAXPROCS(t, procs)
				emptyCores(t)
				testShards = s
				res, err := d.run()
				if err != nil {
					t.Fatal(err)
				}
				return asJSON(t, res)
			}
			golden := run(1, 1)
			for _, s := range []int{2, 3, 8} {
				for _, procs := range []int{1, 4} {
					if got := run(procs, s); got != golden {
						t.Errorf("GOMAXPROCS=%d shards=%d output differs from GOMAXPROCS=1 shards=1", procs, s)
					}
				}
			}
		})
	}
}

// TestFig1Cancellation checks that a cancelled context aborts the sweep
// quickly and surfaces the cancellation.
func TestFig1Cancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultFig1Config()
	start := time.Now()
	if _, err := RunFig1Ctx(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	// The full sweep takes seconds; a pre-cancelled one must be instant.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled sweep still ran for %v", d)
	}
}
