package cache

import (
	"testing"

	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// gridPropNames labels gridPropSpec's points, in order.
var gridPropNames = []string{"dm", "2w", "ipoly-sk", "4w", "xor-sk4", "fa"}

// gridPropSpec is the config list the invariant tests permute and
// re-chunk: small but covering direct-mapped to fully-associative
// points, skewed and unskewed.
func gridPropSpec() GridSpec {
	return GridSpec{
		{Size: 4 << 10, BlockSize: 32, Ways: 1},
		{Size: 8 << 10, BlockSize: 32, Ways: 2},
		{Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement: index.NewIPolyDefault(2, 7, 14)},
		{Size: 8 << 10, BlockSize: 32, Ways: 4},
		{Size: 8 << 10, BlockSize: 32, Ways: 4,
			Placement: index.NewXORFold(6, true)},
		{Size: 1 << 10, BlockSize: 32, Ways: 32, Placement: index.Single{}},
	}
}

// gridPropRecs is a deterministic mixed workload for the invariant
// tests.
func gridPropRecs(n int) []trace.Rec {
	r := rng.New(23)
	recs := make([]trace.Rec, n)
	for i := range recs {
		switch {
		case r.Bool(0.1):
			recs[i] = trace.Rec{Op: trace.OpBranch}
		case r.Bool(0.3):
			recs[i] = trace.Rec{Op: trace.OpStore, Addr: uint64(r.Intn(48 << 10))}
		default:
			recs[i] = trace.Rec{Op: trace.OpLoad, Addr: uint64(r.Intn(48 << 10))}
		}
	}
	return recs
}

// TestGridPermutationInvariance: permuting the spec permutes the stats
// identically — point identity is positional, and points never interact.
func TestGridPermutationInvariance(t *testing.T) {
	spec := gridPropSpec()
	recs := gridPropRecs(25000)
	base := NewGrid(spec)
	base.AccessStream(recs)

	perm := []int{3, 0, 5, 2, 4, 1}
	shuffled := make(GridSpec, len(spec))
	for i, j := range perm {
		shuffled[i] = spec[j]
	}
	g := NewGrid(shuffled)
	g.AccessStream(recs)
	for i, j := range perm {
		if g.StatsAt(i) != base.StatsAt(j) {
			t.Errorf("point %s moved %d->%d and changed stats:\nbase     %+v\nshuffled %+v",
				gridPropNames[j], j, i, base.StatsAt(j), g.StatsAt(i))
		}
	}
}

// TestGridSingleConfigMatchesCache: a 1-point grid is exactly the
// single-cache engine.
func TestGridSingleConfigMatchesCache(t *testing.T) {
	recs := gridPropRecs(25000)
	for k, cfg := range gridPropSpec() {
		t.Run(gridPropNames[k], func(t *testing.T) {
			g := NewGrid(GridSpec{cfg})
			c := New(cfg)
			gn := g.AccessStream(recs)
			cn := c.AccessStream(recs)
			if gn != cn {
				t.Fatalf("grid processed %d records, cache %d", gn, cn)
			}
			if g.StatsAt(0) != c.Stats() {
				t.Errorf("stats diverged:\ngrid  %+v\ncache %+v", g.StatsAt(0), c.Stats())
			}
		})
	}
}

// TestGridChunkSizeInvariance: replaying the same records in chunks of
// 1, 7 and 4096 is bit-identical — chunking is a transport detail.
func TestGridChunkSizeInvariance(t *testing.T) {
	spec := gridPropSpec()
	recs := gridPropRecs(20000)
	run := func(chunk int) GridStats {
		g := NewGrid(spec)
		for lo := 0; lo < len(recs); lo += chunk {
			hi := lo + chunk
			if hi > len(recs) {
				hi = len(recs)
			}
			g.AccessStream(recs[lo:hi])
		}
		return g.Stats()
	}
	want := run(4096)
	for _, chunk := range []int{1, 7} {
		got := run(chunk)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("chunk=%d point %d (%s): stats diverged\ngot  %+v\nwant %+v",
					chunk, k, gridPropNames[k], got[k], want[k])
			}
		}
	}
}

// TestGridResetMatchesFresh: a Reset grid replays bit-identically to a
// freshly constructed one (fig1 reuses one grid across strides), a
// random-replacement point included: Reset restarts its stream.
func TestGridResetMatchesFresh(t *testing.T) {
	spec := append(gridPropSpec(), Config{Size: 8 << 10, BlockSize: 32, Ways: 4,
		Placement: index.NewIPolyDefault(4, 6, 14), Replacement: Random})
	recs := gridPropRecs(15000)
	g := NewGrid(spec)
	g.AccessStream(recs)
	g.Reset()
	g.AccessStream(recs)
	fresh := NewGrid(spec)
	fresh.AccessStream(recs)
	for k := range spec {
		if g.StatsAt(k) != fresh.StatsAt(k) {
			t.Errorf("point %d (%s): reset grid diverged from fresh\nreset %+v\nfresh %+v",
				k, pointLabel(spec[k]), g.StatsAt(k), fresh.StatsAt(k))
		}
	}
}

// TestGridResetStatsKeepsContents: ResetStats zeroes counters but keeps
// contents, like Cache.ResetStats (the fig1 warm-up contract).
func TestGridResetStatsKeepsContents(t *testing.T) {
	cfg := Config{Size: 4 << 10, BlockSize: 32, Ways: 2}
	g := NewGrid(GridSpec{cfg})
	c := New(cfg)
	// A cache-resident working set, so a warm replay is hit-dominated.
	r := rng.New(31)
	recs := make([]trace.Rec, 8000)
	for i := range recs {
		recs[i] = trace.Rec{Op: trace.OpLoad, Addr: uint64(r.Intn(2 << 10))}
	}
	g.AccessStream(recs)
	c.AccessStream(recs)
	g.ResetStats()
	c.ResetStats()
	g.AccessStream(recs)
	c.AccessStream(recs)
	if g.StatsAt(0) != c.Stats() {
		t.Errorf("post-ResetStats replay diverged:\ngrid  %+v\ncache %+v", g.StatsAt(0), c.Stats())
	}
	if g.StatsAt(0).Misses >= g.StatsAt(0).Accesses/2 {
		t.Errorf("warm replay mostly missing (%+v); ResetStats appears to have flushed contents",
			g.StatsAt(0))
	}
}

// TestGridValidation: NewGrid rejects an empty spec and applies New's
// construction-time checks to every point.
func TestGridValidation(t *testing.T) {
	wantPanic := func(name string, spec GridSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewGrid did not panic", name)
			}
		}()
		NewGrid(spec)
	}
	wantPanic("empty spec", GridSpec{})
	wantPanic("bad geometry", GridSpec{{Size: 100, BlockSize: 32, Ways: 1}})
	wantPanic("placement mismatch", GridSpec{{
		Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: index.NewModulo(3),
	}})
}
