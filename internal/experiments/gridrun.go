package experiments

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/index"
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
// design points, a stack-distance engine standing in for conventional
// points, a cache.Cache simulating a point the Grid cannot, or an
// auxiliary consumer (a composite organization — victim cache,
// column-associative cache, two-level hierarchy — that a flat point
// cannot describe).  Consumers never share mutable state, so any
// partition of them across workers that preserves chunk order is
// bit-identical to a sequential pass.  weight is the consumer's rough
// per-record cost relative to one grid point, used to balance shards.
type chunkConsumer struct {
	fn     func(recs []trace.Rec)
	weight int
}

// auxWeight is the balancing weight of every consumer but a sub-Grid:
// about two grid points' work per record.
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
// store, through every point of spec and every aux consumer, and
// returns the points' statistics in spec order — each bit-identical to
// an independent cache.New(spec[k]) replay.  routeSpec picks each
// point's engine; the driver only lists caches.  runGrid sizes the
// intra-trace parallelism itself with shardCount.  At one shard the
// chunk loop runs inline; above one, a single producer decodes each
// chunk once into a bounded ring (trace.Broadcast) and worker
// goroutines advance disjoint consumer groups concurrently.  Every
// consumer sees every record in order on either path, so results are
// identical at every shard count, while the driver pays one trace pass
// per benchmark instead of one per design point.  Cancellation is
// checked between chunks.
func runGrid(ctx context.Context, prof workload.Profile, seed, n uint64,
	spec cache.GridSpec, aux ...func(recs []trace.Rec)) ([]cache.Stats, error) {
	engines, onGrid, caches, at := routeSpec(spec)
	shards := shardCount(len(onGrid) + len(engines) + len(caches) + len(aux))
	var g *cache.ShardedGrid
	var consumers []chunkConsumer
	if len(onGrid) > 0 {
		g = cache.NewShardedGrid(onGrid, shards)
		for i := 0; i < g.Shards(); i++ {
			sub := g.Sub(i)
			consumers = append(consumers, chunkConsumer{
				fn:     func(recs []trace.Rec) { sub.AccessStream(recs) },
				weight: sub.Len(),
			})
		}
	}
	for _, e := range engines {
		consumers = append(consumers, chunkConsumer{
			fn:     func(recs []trace.Rec) { e.AccessStream(recs) },
			weight: auxWeight,
		})
	}
	for _, c := range caches {
		consumers = append(consumers, chunkConsumer{
			fn:     func(recs []trace.Rec) { c.AccessStream(recs) },
			weight: auxWeight,
		})
	}
	for _, fn := range aux {
		consumers = append(consumers, chunkConsumer{fn: fn, weight: auxWeight})
	}
	if err := replayThrough(ctx, prof, seed, n, consumers, shards); err != nil {
		return nil, err
	}
	st := make([]cache.Stats, len(spec))
	for k, r := range at {
		switch r.on {
		case viaStackdist:
			st[k] = engines[r.i].StatsAt(spec[k].Ways)
		case viaCache:
			st[k] = caches[r.i].Stats()
		default:
			st[k] = g.StatsAt(r.i)
		}
	}
	return st, nil
}

// An engineKind names the engine that simulates a spec point.
type engineKind int

const (
	viaGrid      engineKind = iota // a point of the sharded Grid
	viaStackdist                   // a stack-distance engine, read at the point's ways
	viaCache                       // a cache.Cache of its own
)

// pointRoute says where one spec point is simulated: on the i'th
// instance of its engine kind.
type pointRoute struct {
	on engineKind
	i  int
}

// routeSpec is the engine choice, made once for every driver, and it
// takes any valid cache.Config.  A conventional point — LRU,
// write-through, no-write-allocate, placed by modulo (nil or
// *index.Modulo) or in a single set (index.Single) — has the stack
// property (Mattson et al. 1970), and a set count fully determines its
// placement, so every such point of one (set count, block size) reads
// its statistics off one stackdist.Engine tracking the largest
// associativity among them.  Each engine is built with its points'
// placement, so a placement/geometry mismatch still panics.  Every
// other LRU, write-through, no-write-allocate point runs on the sharded
// Grid, if its block size is the first such point's and at least 2
// bytes.  What the Grid cannot simulate — FIFO or random replacement,
// write-back, write-allocate, another block size — runs on a cache.Cache
// of its own.  Engines and caches appear in the order of their first
// point in spec, so shard grouping stays deterministic.
func routeSpec(spec cache.GridSpec) (engines []*stackdist.Engine, onGrid cache.GridSpec, caches []*cache.Cache, at []pointRoute) {
	type family struct{ sets, block, placeSets int }
	var fams []family
	var cfgs []stackdist.Config
	at = make([]pointRoute, len(spec))
	for k, cfg := range spec {
		lruWT := cfg.Replacement == cache.LRU && !cfg.WriteBack && !cfg.WriteAllocate
		conventional := lruWT
		switch cfg.Placement.(type) {
		case nil, *index.Modulo, index.Single:
		default:
			conventional = false
		}
		switch {
		case conventional: // read off a stack-distance engine, below
		case lruWT && cfg.BlockSize > 1 && (len(onGrid) == 0 || cfg.BlockSize == onGrid[0].BlockSize):
			at[k] = pointRoute{viaGrid, len(onGrid)}
			onGrid = append(onGrid, cfg)
			continue
		default:
			at[k] = pointRoute{viaCache, len(caches)}
			caches = append(caches, cache.New(cfg))
			continue
		}
		f := family{sets: 1 << cfg.SetBits(), block: cfg.BlockSize}
		f.placeSets = f.sets
		if cfg.Placement != nil {
			f.placeSets = cfg.Placement.Sets()
		}
		i := slices.Index(fams, f)
		if i < 0 {
			i = len(fams)
			fams = append(fams, f)
			cfgs = append(cfgs, stackdist.Config{Sets: f.sets, BlockSize: f.block, Placement: cfg.Placement})
		}
		cfgs[i].MaxWays = max(cfgs[i].MaxWays, cfg.Ways)
		at[k] = pointRoute{viaStackdist, i}
	}
	for _, c := range cfgs {
		engines = append(engines, stackdist.New(c))
	}
	return engines, onGrid, caches, at
}

// replayThrough streams the trace once through every consumer: inline
// when the consumers form one group, else from a single producer over
// a trace.Broadcast ring to one worker goroutine per group.
func replayThrough(ctx context.Context, prof workload.Profile, seed, n uint64, consumers []chunkConsumer, shards int) error {
	groups := shardConsumers(consumers, shards)
	if len(groups) <= 1 {
		return memTraces.ReplayMem(ctx, prof, seed, n, func(recs []trace.Rec) {
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
	err := memTraces.ReplayMemChunks(ctx, prof, seed, n, b.Slot, b.Publish)
	b.CloseSend(err)
	wg.Wait()
	return err
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
