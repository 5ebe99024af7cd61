package experiments

import (
	"context"
	"testing"

	"repro/internal/exp"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// TestDriversShareOneGenerationPass is the `repro all` memoization
// contract: every memory-trace driver in a run pulls each (profile,
// seed) trace from the store, so the whole sequence of drivers costs
// exactly one generation pass per benchmark — not one per driver, let
// alone one per design point.
//
// The test swaps in a private store (restored on exit) and runs the
// seven chunk-replay drivers back to back, mimicking `repro all`.
func TestDriversShareOneGenerationPass(t *testing.T) {
	saved := memTraces
	memTraces = tracestore.New(tracestore.DefaultMaxBytes)
	defer func() { memTraces = saved }()

	b := exp.Base{Instructions: 4_000, Seed: 7}
	ctx := context.Background()
	for _, run := range []func() error{
		func() error { _, err := RunOrgsCtx(ctx, b); return err },
		func() error { _, err := RunStdDevCtx(ctx, b); return err },
		func() error { _, err := RunSweepCtx(ctx, b); return err },
		func() error { _, err := RunThreeCCtx(ctx, b); return err },
		func() error { _, err := RunColAssocCtx(ctx, b); return err },
		func() error { _, err := RunOptions31Ctx(ctx, b); return err },
		func() error { _, err := RunHolesCtx(ctx, b); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}

	st := memTraces.Stats()
	suite := uint64(len(workload.Suite()))
	bad := uint64(len(workload.BadPrograms()))
	if st.Generations != suite {
		t.Errorf("seven drivers cost %d generation passes, want %d (one per profile)",
			st.Generations, suite)
	}
	if st.Streamed != 0 {
		t.Errorf("streamed=%d, want 0 at this scale", st.Streamed)
	}
	// Every driver after the first is pure hits: orgs, stddev, sweep,
	// threec (both schemes in one pass), colassoc and the holes suite
	// touch each profile once, options31 once per bad program.
	wantTouches := uint64(6)*suite + bad
	if st.Hits+st.Misses != wantTouches {
		t.Errorf("store saw %d touches (hits %d + misses %d), want %d",
			st.Hits+st.Misses, st.Hits, st.Misses, wantTouches)
	}
}

// TestGridDriversSingleTracePass pins the grid port's headline
// invariant driver by driver: each grid-shaped experiment performs
// exactly one store pass per benchmark — the whole design-space grid
// (and any composite auxiliary structures) advances inside that single
// replay.  A second pass per design point, per scheme or per page-size
// variant shows up here as an exact touch-count mismatch.
func TestGridDriversSingleTracePass(t *testing.T) {
	saved := memTraces
	defer func() { memTraces = saved }()

	b := exp.Base{Instructions: 3_000, Seed: 7}
	ctx := context.Background()
	suite := uint64(len(workload.Suite()))
	bad := uint64(len(workload.BadPrograms()))
	cases := []struct {
		name string
		want uint64 // benchmarks the driver replays = exact store touches
		run  func() error
	}{
		{"missratio", suite, func() error { _, err := RunOrgsCtx(ctx, b); return err }},
		{"stddev", suite, func() error { _, err := RunStdDevCtx(ctx, b); return err }},
		{"sweep", suite, func() error { _, err := RunSweepCtx(ctx, b); return err }},
		{"options31", bad, func() error { _, err := RunOptions31Ctx(ctx, b); return err }},
		{"ablate", bad, func() error { _, err := RunAblateCtx(ctx, b); return err }},
		{"holes", suite, func() error { _, err := RunHolesCtx(ctx, b); return err }},
		{"threec", suite, func() error { _, err := RunThreeCCtx(ctx, b); return err }},
		{"colassoc", suite, func() error { _, err := RunColAssocCtx(ctx, b); return err }},
		{"curves", suite, func() error { _, err := RunCurvesCtx(ctx, CurvesConfig{Base: b}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memTraces = tracestore.New(tracestore.DefaultMaxBytes)
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			st := memTraces.Stats()
			if got := st.Hits + st.Misses; got != tc.want {
				t.Errorf("%s performed %d trace passes (hits %d + misses %d), want exactly %d (one per benchmark)",
					tc.name, got, st.Hits, st.Misses, tc.want)
			}
		})
	}
}
