package experiments

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// A chunkConsumer is one independently advanceable piece of simulation
// state riding a single trace pass: a sub-Grid over a partition of
// design points, one stack-distance engine, or a composite organization
// (victim cache, column-associative cache, two-level hierarchy) that a
// flat Grid cannot subsume.  Consumers never share mutable state, so
// any partition of them across workers that preserves chunk order is
// bit-identical to a sequential pass.  weight is the consumer's rough
// per-record cost relative to one grid point, used to balance shards.
type chunkConsumer struct {
	fn     func(recs []trace.Rec)
	weight int
}

// gridConsumers adapts a sharded grid: one consumer per sub-Grid,
// weighted by its point count.
func gridConsumers(g *cache.ShardedGrid) []chunkConsumer {
	out := make([]chunkConsumer, g.Shards())
	for i := range out {
		sub := g.Sub(i)
		out[i] = chunkConsumer{
			fn:     func(recs []trace.Rec) { sub.AccessStream(recs) },
			weight: sub.Len(),
		}
	}
	return out
}

// famConsumers adapts a stack-distance family: one consumer per
// per-set-count engine (engines are mutually independent, each tracing
// every associativity of its set count).
func famConsumers(f *stackdist.Family) []chunkConsumer {
	engines := f.Engines()
	out := make([]chunkConsumer, len(engines))
	for i, e := range engines {
		e := e
		out[i] = chunkConsumer{
			fn:     func(recs []trace.Rec) { e.AccessStream(recs) },
			weight: 2,
		}
	}
	return out
}

// auxConsumer adapts a plain chunk function — the composite
// organizations and record-at-a-time models.
func auxConsumer(fn func(recs []trace.Rec)) chunkConsumer {
	return chunkConsumer{fn: fn, weight: 2}
}

// testShards, when positive, replaces the derived shard count.  Only
// tests set it, to pin results at fixed counts.
var testShards int

// shardCount picks the intra-trace parallelism for the number of
// independently advanceable consumers a driver is about to build.  It
// divides the machine between the two parallelism layers: GOMAXPROCS
// over the jobs currently outstanding on the runner pool, so a
// saturated `repro all` keeps every job on one goroutine (job-level
// parallelism already owns the cores) while the pool's tail — or a
// single-experiment run — fans out inside the trace.  Whatever it
// picks, results are bit-identical: sharding only partitions
// independent state.
func shardCount(consumers int) int {
	s := testShards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0) / max(runner.Outstanding(), 1)
	}
	if s > consumers {
		s = consumers
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardConsumers partitions consumers into at most shards balanced
// groups, greedily assigning each consumer (in declaration order) to
// the lightest group so far — deterministic, and within one point of
// optimal for the near-uniform weights the drivers produce.
func shardConsumers(consumers []chunkConsumer, shards int) [][]chunkConsumer {
	if shards > len(consumers) {
		shards = len(consumers)
	}
	if shards < 1 {
		shards = 1
	}
	groups := make([][]chunkConsumer, shards)
	loads := make([]int, shards)
	for _, u := range consumers {
		j := 0
		for i := 1; i < shards; i++ {
			if loads[i] < loads[j] {
				j = i
			}
		}
		groups[j] = append(groups[j], u)
		loads[j] += max(u.weight, 1)
	}
	return groups
}

// broadcastSlots is the chunk-ring depth of the sharded pipeline: deep
// enough to keep the producer decoding ahead of the slowest worker,
// shallow enough that in-flight chunks stay cache-resident (6 slots ×
// 8k records × 24 B ≈ 1.2 MB per job).
const broadcastSlots = 6

// runGrid is the single-pass replay harness behind the grid-shaped
// drivers: it streams one benchmark's memory trace exactly once, in
// bounded chunks from the memoized store, through every consumer.
// shards is the intra-trace parallelism the driver resolved with
// shardCount.  At one shard the chunk loop runs inline; above one, a
// single producer decodes each chunk once into a bounded ring
// (trace.Broadcast) and worker goroutines advance disjoint consumer
// groups concurrently.  Every consumer sees every record in order on
// either path, so results are bit-identical to independent full-trace
// replays — and to each other at every shard count — while the driver
// pays one trace pass per benchmark instead of one per design point.
func runGrid(ctx context.Context, prof workload.Profile, seed, max uint64,
	shards int, consumers ...chunkConsumer) error {
	groups := shardConsumers(consumers, shards)
	if len(groups) <= 1 {
		return forEachMemChunk(ctx, prof, seed, max, func(recs []trace.Rec) {
			for _, u := range consumers {
				u.fn(recs)
			}
		})
	}
	b := trace.NewBroadcast(len(groups), broadcastSlots, tracestore.ChunkLen)
	var wg sync.WaitGroup
	for k := range groups {
		wg.Add(1)
		go func(units []chunkConsumer, k int) {
			defer wg.Done()
			b.Receive(k, func(recs []trace.Rec) {
				for _, u := range units {
					u.fn(recs)
				}
			})
		}(groups[k], k)
	}
	err := memTraces.ReplayMemChunks(ctx, prof, seed, max, b.Slot, b.Publish)
	b.CloseSend(err)
	wg.Wait()
	return err
}
