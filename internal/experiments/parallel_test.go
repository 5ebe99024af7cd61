package experiments

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyBase returns options scaled for the cross-worker determinism
// tests, which run every experiment several times.
func tinyBase(workers int) exp.Base {
	return exp.Base{Instructions: 8_000, Seed: 7, Workers: workers}
}

// tinyFig1 returns the fig1 sweep at determinism-test scale.
func tinyFig1(workers int) Fig1Config {
	return Fig1Config{Base: tinyBase(workers), Rounds: 5, MaxStride: 300}
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
	cfg = cfg.normalize()
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
	serial := asJSON(t, RunFig1Serial(tinyFig1(0)))
	for _, workers := range []int{1, 4} {
		got := asJSON(t, runOK(t, RunFig1Ctx, tinyFig1(workers)))
		if got != serial {
			t.Errorf("workers=%d: parallel result diverged from serial driver\n got %s\nwant %s",
				workers, got, serial)
		}
	}
}

// tinyRegistryConfig builds the determinism-scale config for a
// registered experiment by assigning its parameters through the spec —
// the same write path the CLI flags use.
func tinyRegistryConfig(t *testing.T, e exp.Experiment, workers int) exp.Config {
	t.Helper()
	cfg := e.New()
	scale := map[string]string{
		"instructions": "8000",
		"seed":         "7",
		"workers":      strconv.Itoa(workers),
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
// experiment through the registry path at 1, 4 and 16 workers and
// requires byte-identical report JSON.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	if len(exp.All()) == 0 {
		t.Fatal("registry is empty")
	}
	for _, e := range exp.All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) string {
				rep, err := exp.Run(context.Background(), e, tinyRegistryConfig(t, e, workers))
				if err != nil {
					t.Fatal(err)
				}
				// Workers/Wall are execution metadata excluded from the
				// JSON envelope, so this compares simulation payload only.
				return asJSON(t, rep)
			}
			golden := run(1)
			for _, workers := range []int{4, 16} {
				if got := run(workers); got != golden {
					t.Errorf("workers=%d output differs from workers=1", workers)
				}
			}
		})
	}
}

// TestGridDriversDeterministicAcrossWorkers pins the five grid-backed
// drivers (sweep, missratio, stddev, options31, holes — fig1 is covered
// by TestFig1ParallelMatchesSerial above) at 1, 4 and 16 workers:
// shifting worker-level parallelism from per-config jobs to
// per-benchmark grid jobs must leave every result byte-identical at any
// worker count.
func TestGridDriversDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	drivers := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"sweep", func(w int) (any, error) {
			return RunSweepCtx(context.Background(), SweepConfig{Base: tinyBase(w)})
		}},
		{"missratio", func(w int) (any, error) {
			return RunOrgsCtx(context.Background(), OrgsConfig{Base: tinyBase(w)})
		}},
		{"stddev", func(w int) (any, error) {
			return RunStdDevCtx(context.Background(), StdDevConfig{Base: tinyBase(w)})
		}},
		{"options31", func(w int) (any, error) {
			return RunOptions31Ctx(context.Background(), Options31Config{Base: tinyBase(w)})
		}},
		{"holes", func(w int) (any, error) {
			return RunHolesCtx(context.Background(), HolesConfig{Base: tinyBase(w)})
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) string {
				res, err := d.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				return asJSON(t, res)
			}
			golden := run(1)
			for _, workers := range []int{4, 16} {
				if got := run(workers); got != golden {
					t.Errorf("workers=%d output differs from workers=1", workers)
				}
			}
		})
	}
}

// TestGridDriversDeterministicAcrossShards pins intra-trace sharding:
// every runGrid-backed driver must produce byte-identical results at
// shard counts 1, 2, 3 and 8 crossed with 1 and 4 pool workers.  Like
// the worker count, the shard count is a pure execution detail — the
// point-order stats merge makes any partition invisible in the output.
func TestGridDriversDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	base := func(w, s int) exp.Base {
		b := tinyBase(w)
		b.Shards = s
		return b
	}
	drivers := []struct {
		name string
		run  func(w, s int) (any, error)
	}{
		{"fig1", func(w, s int) (any, error) {
			cfg := tinyFig1(w)
			cfg.Shards = s
			return RunFig1Ctx(context.Background(), cfg)
		}},
		{"sweep", func(w, s int) (any, error) {
			return RunSweepCtx(context.Background(), SweepConfig{Base: base(w, s)})
		}},
		{"missratio", func(w, s int) (any, error) {
			return RunOrgsCtx(context.Background(), OrgsConfig{Base: base(w, s)})
		}},
		{"stddev", func(w, s int) (any, error) {
			return RunStdDevCtx(context.Background(), StdDevConfig{Base: base(w, s)})
		}},
		{"options31", func(w, s int) (any, error) {
			return RunOptions31Ctx(context.Background(), Options31Config{Base: base(w, s)})
		}},
		{"curves", func(w, s int) (any, error) {
			return RunCurvesCtx(context.Background(), CurvesConfig{Base: base(w, s)})
		}},
		{"holes", func(w, s int) (any, error) {
			return RunHolesCtx(context.Background(), HolesConfig{Base: base(w, s)})
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			run := func(w, s int) string {
				res, err := d.run(w, s)
				if err != nil {
					t.Fatal(err)
				}
				return asJSON(t, res)
			}
			golden := run(1, 1)
			for _, s := range []int{2, 3, 8} {
				for _, w := range []int{1, 4} {
					if got := run(w, s); got != golden {
						t.Errorf("workers=%d shards=%d output differs from workers=1 shards=1", w, s)
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
	cfg.Workers = 2
	start := time.Now()
	if _, err := RunFig1Ctx(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	// The full sweep takes seconds; a pre-cancelled one must be instant.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled sweep still ran for %v", d)
	}
}
