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
// state riding a single trace pass: one spec point's cache.Cache, a
// stack-distance engine standing in for conventional points, or an
// auxiliary consumer (a composite organization — victim cache,
// column-associative cache, two-level hierarchy — that a flat point
// cannot describe).  Consumers never share mutable state, so any
// partition of them across workers that preserves chunk order is
// bit-identical to a sequential pass.  weight is the consumer's rough
// per-record cost relative to one cache point, used to balance shards.
type chunkConsumer struct {
	fn     func(recs []trace.Rec)
	weight int
}

// auxWeight is the balancing weight of every consumer but a cache
// point: about two points' work per record.
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

// shardConsumers partitions a pass's consumers into shards balanced
// groups, shards as shardCount picks it, greedily assigning each
// consumer (in list order) to the lightest group so far: deterministic,
// and no group outweighs the lightest by more than the heaviest single
// consumer.
func shardConsumers(consumers []chunkConsumer, shards int) [][]chunkConsumer {
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
		loads[j] += u.weight
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
// an independent cache.New(spec[k]) replay.  routeSpec turns the spec
// into chunk consumers; the driver only lists caches.  The pass is one
// consumer list, the spec's consumers then aux, which replayThrough
// partitions once.  Every consumer sees every record in order on any
// partition, so results are identical at every shard count, while the
// driver pays one trace pass per benchmark instead of one per design
// point.  Cancellation is checked between chunks.
func runGrid(ctx context.Context, prof workload.Profile, seed, n uint64,
	spec cache.GridSpec, aux ...func(recs []trace.Rec)) ([]cache.Stats, error) {
	consumers, stats := routeSpec(spec)
	for _, fn := range aux {
		consumers = append(consumers, chunkConsumer{fn: fn, weight: auxWeight})
	}
	if err := replayThrough(ctx, prof, seed, n, consumers); err != nil {
		return nil, err
	}
	st := make([]cache.Stats, len(spec))
	for k, read := range stats {
		st[k] = read()
	}
	return st, nil
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
// other point is a cache.Cache of its own.  routeSpec returns the
// pass's consumers, each other point's cache (weight 1) in spec order
// and then each engine (weight auxWeight) in the order of its first
// point, and one statistics reader per point, in spec order.
func routeSpec(spec cache.GridSpec) (consumers []chunkConsumer, stats []func() cache.Stats) {
	type family struct{ sets, block, placeSets int }
	var fams []family
	var cfgs []stackdist.Config
	var engines []*stackdist.Engine
	stats = make([]func() cache.Stats, len(spec))
	for k, cfg := range spec {
		conventional := cfg.Replacement == cache.LRU && !cfg.WriteBack && !cfg.WriteAllocate
		switch cfg.Placement.(type) {
		case nil, *index.Modulo, index.Single:
		default:
			conventional = false
		}
		if !conventional {
			c := cache.New(cfg)
			consumers = append(consumers, chunkConsumer{
				fn:     func(recs []trace.Rec) { c.AccessStream(recs) },
				weight: 1,
			})
			stats[k] = c.Stats
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
		stats[k] = func() cache.Stats { return engines[i].StatsAt(cfg.Ways) }
	}
	for _, c := range cfgs {
		e := stackdist.New(c)
		engines = append(engines, e)
		consumers = append(consumers, chunkConsumer{
			fn:     func(recs []trace.Rec) { e.AccessStream(recs) },
			weight: auxWeight,
		})
	}
	return consumers, stats
}

// replayThrough streams the trace once through every consumer, split
// into shardCount groups: inline when that is one group, else from a
// single producer over a trace.Broadcast ring to one worker goroutine
// per group.
func replayThrough(ctx context.Context, prof workload.Profile, seed, n uint64, consumers []chunkConsumer) error {
	groups := shardConsumers(consumers, shardCount(len(consumers)))
	if len(groups) == 1 {
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
