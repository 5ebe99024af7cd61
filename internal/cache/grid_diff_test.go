package cache

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The differential harness: a Grid over N configurations and N
// independent Caches built from the same configurations are driven by
// identical randomized trace chunks, and every configuration's
// statistics — hits, misses, read/write splits, evictions, fills — must
// match bit-for-bit.  The config list covers every placement family,
// replacement policy and write mode, associativities from direct-mapped
// to fully-associative, and block sizes from 1 to 64 bytes in one spec.

// diffConfigs is the differential-test configuration list: engineConfigs'
// 2-way matrix (every placement family under every policy and write
// mode), plus geometry extremes the 2-way matrix misses.
func diffConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	for _, nc := range engineConfigs(t) {
		cfgs = append(cfgs, nc.cfg)
	}
	return append(cfgs,
		// Direct-mapped, the degenerate no-policy geometry.
		Config{Size: 64 * 32, BlockSize: 32, Ways: 1},
		// 4-way conventional and 4-way I-Poly skewed.
		Config{Size: 64 * 32 * 4, BlockSize: 32, Ways: 4},
		Config{Size: 64 * 32 * 4, BlockSize: 32, Ways: 4,
			Placement: index.NewIPolyDefault(4, 6, 14)},
		// Fully associative.
		Config{Size: 32 * 32, BlockSize: 32, Ways: 32, Placement: index.Single{}},
		// A 1-byte block, whose block address is the byte address.
		Config{Size: 256, BlockSize: 1, Ways: 2, Placement: index.NewIPolyDefault(2, 7, 14)},
		// 64-byte blocks beside the 32-byte points.
		Config{Size: 64 * 64 * 2, BlockSize: 64, Ways: 2,
			Placement: index.NewIPolyDefault(2, 6, 14)},
		Config{Size: 64 * 64, BlockSize: 64, Ways: 1},
	)
}

// pointLabel describes a configuration in failure messages.
func pointLabel(cfg Config) string {
	return fmt.Sprintf("%dB %d-way %T", cfg.Size, cfg.Ways, cfg.Placement)
}

// diffChunk fills recs with a randomized load/store/non-memory mix.
func diffChunk(r *rng.RNG, n int, span int) []trace.Rec {
	recs := make([]trace.Rec, n)
	for i := range recs {
		switch {
		case r.Bool(0.15):
			recs[i] = trace.Rec{Op: trace.OpIntALU}
		case r.Bool(0.3):
			recs[i] = trace.Rec{Op: trace.OpStore, Addr: uint64(r.Intn(span))}
		default:
			recs[i] = trace.Rec{Op: trace.OpLoad, Addr: uint64(r.Intn(span))}
		}
	}
	return recs
}

// driveDiff replays chunks through a grid and the per-config reference
// caches, comparing statistics after every chunk.
func driveDiff(t *testing.T, cfgs []Config, seed uint64, chunks, maxChunk, span int) {
	t.Helper()
	g := NewGrid(GridSpec(cfgs))
	refs := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = New(cfg)
	}
	r := rng.New(seed)
	for c := 0; c < chunks; c++ {
		recs := diffChunk(r, 1+r.Intn(maxChunk), span)
		gn := g.AccessStream(recs)
		var rn uint64
		for _, ref := range refs {
			rn = ref.AccessStream(recs)
		}
		if gn != rn {
			t.Fatalf("chunk %d: grid processed %d records, caches %d", c, gn, rn)
		}
		for k, ref := range refs {
			if g.StatsAt(k) != ref.Stats() {
				t.Fatalf("chunk %d, config %d (%s): stats diverged\ngrid  %+v\ncache %+v",
					c, k, pointLabel(cfgs[k]), g.StatsAt(k), ref.Stats())
			}
		}
	}
}

// TestGridMatchesCaches is the differential centerpiece: the grid and N
// independent caches must agree bit-for-bit over randomized trace
// chunks, across several seeds and address mixes.
func TestGridMatchesCaches(t *testing.T) {
	cfgs := diffConfigs(t)
	mixes := []struct {
		seed uint64
		span int
	}{{3, 16 << 10}, {17, 64 << 10}, {99, 1 << 20}}
	for _, m := range mixes {
		t.Run(fmt.Sprintf("seed=%d/span=%d", m.seed, m.span), func(t *testing.T) {
			driveDiff(t, cfgs, m.seed, 40, 700, m.span)
		})
	}
}

// TestGridStatsOrder checks that Stats() reports points in spec order
// and agrees with StatsAt.
func TestGridStatsOrder(t *testing.T) {
	cfgs := []Config{
		{Size: 4 << 10, BlockSize: 32, Ways: 1},
		{Size: 8 << 10, BlockSize: 32, Ways: 2},
	}
	g := NewGrid(GridSpec(cfgs))
	g.AccessStream(diffChunk(rng.New(1), 2000, 32<<10))
	all := g.Stats()
	if len(all) != g.Len() || g.Len() != len(cfgs) {
		t.Fatalf("Stats() returned %d entries for %d points", len(all), g.Len())
	}
	for k := range cfgs {
		if all[k] != g.StatsAt(k) {
			t.Errorf("point %d: Stats()[k] %+v != StatsAt(k) %+v", k, all[k], g.StatsAt(k))
		}
	}
	if all[0] == all[1] {
		t.Error("distinct geometries produced identical stats; workload too easy")
	}
	if g.Config(1).Size != 8<<10 {
		t.Errorf("Config(1).Size = %d", g.Config(1).Size)
	}
}
