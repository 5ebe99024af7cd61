package experiments

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// memTraces is the memoized trace store every memory-trace driver reads
// through this file.  It is the process-wide default so one `repro all`
// run generates each (profile, seed) memory trace exactly once across
// all drivers; tests swap in private stores to observe hit counts.
// Delivered records carry Op and Addr only (PC and register fields are
// zero on both the memoized and the streamed path) — the view every
// cache-level consumer reads.
var memTraces = tracestore.Default

// A chunkConsumer is one independently advanceable piece of simulation
// state riding a single trace pass: a sub-Grid over a partition of
// design points, or an auxiliary consumer (a stack-distance engine, or
// a composite organization — victim cache, column-associative cache,
// two-level hierarchy — that a flat Grid cannot subsume).  Consumers
// never share mutable state, so any partition of them across workers
// that preserves chunk order is bit-identical to a sequential pass.
// weight is the consumer's rough per-record cost relative to one grid
// point, used to balance shards.
type chunkConsumer struct {
	fn     func(recs []trace.Rec)
	weight int
}

// auxWeight is an auxiliary consumer's balancing weight: about two grid
// points' work per record.
const auxWeight = 2

// testShards, when positive, replaces the derived shard count.  Only
// tests set it, to pin results at fixed counts.
var testShards int

// shardCount picks the intra-trace parallelism for the number of
// independently advanceable consumers a trace pass drives.  It divides
// the machine between the two parallelism layers: GOMAXPROCS over the
// jobs currently outstanding on the runner pool, so a saturated `repro
// all` keeps every job on one goroutine (job-level parallelism already
// owns the cores) while the pool's tail — or a single-experiment run —
// fans out inside the trace.  Whatever it picks, results are
// bit-identical: sharding only partitions independent state.
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

// runGrid is the single-pass replay harness behind every memory-trace
// driver: it streams the first n memory records of one benchmark's
// trace exactly once, in bounded in-order chunks from the memoized
// store, through a cache.ShardedGrid over spec (built only when spec is
// non-empty, and returned) and through every aux consumer.  It sizes
// the intra-trace parallelism itself with shardCount.  At one shard the
// chunk loop runs inline; above one, a single producer decodes each
// chunk once into a bounded ring (trace.Broadcast) and worker
// goroutines advance disjoint consumer groups concurrently.  Every
// consumer sees every record in order on either path, so results are
// bit-identical to independent full-trace replays — and to each other
// at every shard count — while the driver pays one trace pass per
// benchmark instead of one per design point.  Cancellation is checked
// between chunks.
func runGrid(ctx context.Context, prof workload.Profile, seed, n uint64,
	spec cache.GridSpec, aux ...func(recs []trace.Rec)) (*cache.ShardedGrid, error) {
	shards := shardCount(len(spec) + len(aux))
	var g *cache.ShardedGrid
	var consumers []chunkConsumer
	if len(spec) > 0 {
		g = cache.NewShardedGrid(spec, shards)
		for i := 0; i < g.Shards(); i++ {
			sub := g.Sub(i)
			consumers = append(consumers, chunkConsumer{
				fn:     func(recs []trace.Rec) { sub.AccessStream(recs) },
				weight: sub.Len(),
			})
		}
	}
	for _, fn := range aux {
		consumers = append(consumers, chunkConsumer{fn: fn, weight: auxWeight})
	}
	groups := shardConsumers(consumers, shards)
	if len(groups) <= 1 {
		err := memTraces.ReplayMem(ctx, prof, seed, n, func(recs []trace.Rec) {
			for _, u := range consumers {
				u.fn(recs)
			}
		})
		return g, err
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
	err := memTraces.ReplayMemChunks(ctx, prof, seed, n, b.Slot, b.Publish)
	b.CloseSend(err)
	wg.Wait()
	return g, err
}

// traceLen reports how many memory records the first n records of the
// benchmark's trace hold: n for the infinite synthetic generators,
// possibly fewer for a finite external trace file.
func traceLen(ctx context.Context, prof workload.Profile, seed, n uint64) (uint64, error) {
	return memTraces.MemLen(ctx, prof, seed, n)
}

// runRange streams records [lo, hi) of the first n memory records of
// the benchmark's trace through fn, in order — the window onto the same
// memoized store that time-sharded replay reads instead of runGrid's
// whole pass.  hi is clamped to the trace length.
func runRange(ctx context.Context, prof workload.Profile, seed, n, lo, hi uint64, fn func(recs []trace.Rec)) error {
	return memTraces.ReplayMemRange(ctx, prof, seed, n, lo, hi, fn)
}
