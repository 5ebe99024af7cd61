package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// shardCounts is the partition matrix the differential suite pins:
// degenerate (1), even splits, an odd split (3) and more shards than
// balance allows (8 over small specs exercises the clamp).
var shardCounts = []int{1, 2, 3, 8}

// TestShardedGridMatchesSequential is the sharding differential
// centerpiece: a ShardedGrid at every shard count, each chunk handed to
// every Sub as the experiments' sharded replay hands it, must agree
// bit-for-bit with one sequential Grid over the full engine-config
// cross-product (every placement family, policy, write mode and
// geometry the grid differential suite covers).
func TestShardedGridMatchesSequential(t *testing.T) {
	cfgs := diffConfigs(t)
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seq := NewGrid(GridSpec(cfgs))
			sg := NewShardedGrid(GridSpec(cfgs), shards)
			if shards <= len(cfgs) && sg.Shards() != shards {
				t.Fatalf("Shards() = %d, want %d", sg.Shards(), shards)
			}
			r := rng.New(42)
			for c := 0; c < 30; c++ {
				recs := diffChunk(r, 1+r.Intn(600), 64<<10)
				sn := seq.AccessStream(recs)
				for i := 0; i < sg.Shards(); i++ {
					if gn := sg.Sub(i).AccessStream(recs); gn != sn {
						t.Fatalf("chunk %d: sequential processed %d records, sub %d %d", c, sn, i, gn)
					}
				}
				for k := range cfgs {
					if seq.StatsAt(k) != sg.StatsAt(k) {
						t.Fatalf("chunk %d, point %d (%s): stats diverged\nseq   %+v\nshard %+v",
							c, k, pointLabel(cfgs[k]), seq.StatsAt(k), sg.StatsAt(k))
					}
				}
			}
		})
	}
}

// TestShardedGridConcurrentWorkers drives each shard from its own
// goroutine chunk by chunk — the execution shape of the broadcast
// pipeline — and checks bit-identity against the sequential grid.  A
// barrier between chunks stands in for the chunk ring; under -race
// this doubles as the shard-isolation race test.
func TestShardedGridConcurrentWorkers(t *testing.T) {
	cfgs := diffConfigs(t)
	r := rng.New(7)
	chunks := make([][]trace.Rec, 25)
	for i := range chunks {
		chunks[i] = diffChunk(r, 1+r.Intn(500), 32<<10)
	}
	seq := NewGrid(GridSpec(cfgs))
	for _, c := range chunks {
		seq.AccessStream(c)
	}
	for _, shards := range shardCounts {
		sg := NewShardedGrid(GridSpec(cfgs), shards)
		var wg sync.WaitGroup
		for i := 0; i < sg.Shards(); i++ {
			wg.Add(1)
			go func(g *Grid) {
				defer wg.Done()
				for _, c := range chunks {
					g.AccessStream(c)
				}
			}(sg.Sub(i))
		}
		wg.Wait()
		for k := range cfgs {
			if seq.StatsAt(k) != sg.StatsAt(k) {
				t.Fatalf("shards=%d point %d (%s): concurrent shard stats diverged",
					shards, k, pointLabel(cfgs[k]))
			}
		}
	}
}

// TestShardedGridPartition pins the partition geometry: contiguous,
// exhaustive, near-balanced, and global indexing that matches the
// original spec.
func TestShardedGridPartition(t *testing.T) {
	spec := gridPropSpec()
	recs := gridPropRecs(5000)
	for _, shards := range []int{1, 2, 3, len(spec), len(spec) + 5} {
		sg := NewShardedGrid(spec, shards)
		want := shards
		if want > len(spec) {
			want = len(spec)
		}
		if sg.Shards() != want {
			t.Fatalf("shards=%d: Shards() = %d, want %d", shards, sg.Shards(), want)
		}
		total := 0
		for i := 0; i < sg.Shards(); i++ {
			n := sg.Sub(i).Len()
			total += n
			if min, max := len(spec)/sg.Shards(), (len(spec)+sg.Shards()-1)/sg.Shards(); n < min || n > max {
				t.Errorf("shards=%d: sub %d has %d points, want %d..%d", shards, i, n, min, max)
			}
		}
		if total != len(spec) {
			t.Fatalf("shards=%d: partition covers %d of %d points", shards, total, len(spec))
		}
		for i := 0; i < sg.Shards(); i++ {
			sg.Sub(i).AccessStream(recs)
		}
		for k, cfg := range spec {
			c := New(cfg)
			c.AccessStream(recs)
			if sg.StatsAt(k) != c.Stats() {
				t.Fatalf("shards=%d: StatsAt(%d) is not point %s's (order broken)", shards, k, gridPropNames[k])
			}
		}
	}
}

// TestShardedGridResetMatchesFresh checks that resetting every Sub
// returns the sharded grid to its fresh state, and that ResetStats on
// every Sub zeroes every point StatsAt reads.
func TestShardedGridResetMatchesFresh(t *testing.T) {
	spec := gridPropSpec()
	fresh := NewShardedGrid(spec, 3)
	used := NewShardedGrid(spec, 3)
	recs := diffChunk(rng.New(11), 3000, 32<<10)
	for i := 0; i < used.Shards(); i++ {
		used.Sub(i).AccessStream(recs)
		used.Sub(i).Reset()
		used.Sub(i).AccessStream(recs)
		fresh.Sub(i).AccessStream(recs)
	}
	for k := range spec {
		if fresh.StatsAt(k) != used.StatsAt(k) {
			t.Fatalf("point %d: reset sharded grid diverged from fresh", k)
		}
	}
	for i := 0; i < used.Shards(); i++ {
		used.Sub(i).ResetStats()
	}
	for k := range spec {
		if (used.StatsAt(k) != Stats{}) {
			t.Fatalf("point %d: ResetStats left %+v", k, used.StatsAt(k))
		}
	}
}
