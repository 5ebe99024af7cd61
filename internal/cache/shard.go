package cache

import "sort"

// ShardedGrid splits a GridSpec into contiguous sub-Grids so that
// disjoint point partitions can be advanced by concurrent workers over
// one shared chunk stream.  Grid points are fully independent — each
// owns its state, statistics and clock — so as long as every shard sees
// every chunk in order, the sharded grid's per-point results are
// bit-identical to a single sequential Grid over the same spec, at
// every shard count.  StatsAt addresses points in the original spec
// order, so callers are oblivious to the partitioning.  The experiment
// drivers do not build one: their trace pass partitions its points'
// caches directly.  The benchmark's traced run builds one for its
// cache.sharded_grid_ns_per_point row.
//
// The ShardedGrid itself holds no shared mutable state: concurrent use
// is safe exactly when each sub-Grid is driven by one goroutine at a
// time (a sub-Grid, like Grid, is single-threaded internally).
type ShardedGrid struct {
	subs []*Grid
	// offs[i] is the global index of subs[i]'s first point;
	// offs[len(subs)] is the total point count.
	offs []int
}

// NewShardedGrid builds shards contiguous, near-equal partitions of
// spec, each its own Grid.  The shard count is clamped to [1,
// len(spec)]; it panics on an empty spec (as NewGrid does).
func NewShardedGrid(spec GridSpec, shards int) *ShardedGrid {
	if len(spec) == 0 {
		panic("cache: NewShardedGrid needs at least one configuration")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(spec) {
		shards = len(spec)
	}
	s := &ShardedGrid{
		subs: make([]*Grid, shards),
		offs: make([]int, shards+1),
	}
	for i := 0; i < shards; i++ {
		lo, hi := i*len(spec)/shards, (i+1)*len(spec)/shards
		s.offs[i] = lo
		s.subs[i] = NewGrid(spec[lo:hi])
	}
	s.offs[shards] = len(spec)
	return s
}

// Shards returns the number of sub-Grids.
func (s *ShardedGrid) Shards() int { return len(s.subs) }

// Sub returns shard i's Grid — the unit a worker goroutine owns and
// advances chunk by chunk.
func (s *ShardedGrid) Sub(i int) *Grid { return s.subs[i] }

// shardOf locates the shard holding global point k.
func (s *ShardedGrid) shardOf(k int) (shard, local int) {
	shard = sort.Search(len(s.subs), func(i int) bool { return s.offs[i+1] > k })
	return shard, k - s.offs[shard]
}

// StatsAt returns a copy of global point k's statistics, in original
// spec order.
func (s *ShardedGrid) StatsAt(k int) Stats {
	i, j := s.shardOf(k)
	return s.subs[i].StatsAt(j)
}
