package stackdist

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
)

// Engine simulates every associativity 1..MaxWays of one LRU,
// write-through, no-write-allocate cache family — fixed set count,
// fixed non-skewed index function — in a single trace pass.  Each set
// keeps a truncated stack of its blocks in nesting order: position d
// means the block is resident in exactly the caches with more than d
// ways.  A load found at position d is a hit for those caches and a
// (filling) miss for the rest, so three position histograms are enough
// to reconstruct the exact cache.Stats of every family member.
//
// The stack update is the generalized Mattson cascade: the loaded
// block moves to the top and, walking down to its old position, each
// level's LRU victim (by last-touch time) is carried one level deeper.
// For pure move-to-front traffic the cascade degenerates to a rotate;
// store hits — which refresh recency without reordering the nesting —
// are why the general form is needed.  See the package comment for why
// last-touch time remains a single valid priority across
// associativities.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	cfg     Config
	sets    int
	maxWays int
	offBits uint

	idx index.Compiled // the placement compiled to byte tables

	// Per-set stacks, flat: position i of set s lives at s*maxWays+i.
	// blocks holds block addresses, touch the last-touch clock (the
	// uniform LRU priority).
	blocks []uint64
	touch  []uint64
	depth  []int32 // live stack depth per set

	clock  uint64
	loads  uint64
	stores uint64

	// Position histograms: hits by stack position, cold (absent) loads
	// by pre-access set depth.  loadHitAt[d] loads found at position d
	// hit every cache with ways > d; loadColdAt[m] cold loads at depth m
	// evict in every cache with ways <= m.  Store misses fill nothing,
	// so only store hits need a histogram.
	loadHitAt  []uint64
	storeHitAt []uint64
	loadColdAt []uint64
}

// New builds an engine from cfg.  It panics on invalid geometry, on a
// skewed placement, or on a placement whose set count disagrees with
// cfg.Sets — the same failure discipline as cache.New.
func New(cfg Config) *Engine {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("stackdist: Sets must be a positive power of two")
	}
	if cfg.BlockSize <= 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic("stackdist: BlockSize must be a positive power of two")
	}
	if cfg.MaxWays < 1 {
		panic("stackdist: MaxWays must be at least 1")
	}
	place := cfg.Placement
	if place == nil {
		place = index.NewModulo(bits.TrailingZeros(uint(cfg.Sets)))
	}
	if place.Skewed() {
		panic("stackdist: skewed placements have no stack property; use cache.Cache")
	}
	if place.Sets() != cfg.Sets {
		panic(fmt.Sprintf("stackdist: placement has %d sets, config says %d", place.Sets(), cfg.Sets))
	}
	n := cfg.Sets * cfg.MaxWays
	return &Engine{
		cfg:        cfg,
		sets:       cfg.Sets,
		maxWays:    cfg.MaxWays,
		offBits:    uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		idx:        index.Compile(place, 1),
		blocks:     make([]uint64, n),
		touch:      make([]uint64, n),
		depth:      make([]int32, cfg.Sets),
		loadHitAt:  make([]uint64, cfg.MaxWays),
		storeHitAt: make([]uint64, cfg.MaxWays),
		loadColdAt: make([]uint64, cfg.MaxWays+1),
	}
}

// Config returns the configuration the engine was built with.
func (e *Engine) Config() Config { return e.cfg }

// Sets returns the family's set count.
func (e *Engine) Sets() int { return e.sets }

// MaxWays returns the largest tracked associativity.
func (e *Engine) MaxWays() int { return e.maxWays }

// AccessBlock records one load (write=false) or store (write=true) of
// the block address blk.
func (e *Engine) AccessBlock(blk uint64, write bool) {
	e.clock++
	now := e.clock
	si := int(e.idx[0].Index(blk))
	base := si * e.maxWays
	dep := int(e.depth[si])
	d := 0
	for d < dep && e.blocks[base+d] != blk {
		d++
	}
	if write {
		e.stores++
		if d < dep {
			// Non-allocating store hit: recency refresh in place.  The
			// nesting order is untouched — caches that miss (ways <= d)
			// do not contain the block and never will until its next
			// fill.  A store miss fills nothing.
			e.storeHitAt[d]++
			e.touch[base+d] = now
		}
		return
	}
	e.loads++
	if d < dep {
		e.loadHitAt[d]++
	} else {
		e.loadColdAt[dep]++
		if dep < e.maxWays {
			e.depth[si] = int32(dep + 1)
		}
	}
	e.cascade(base, d, blk, now)
}

// cascade moves the loaded block blk to the top of the stack at base
// and runs the victim cascade down to position end: the block's old
// position on a hit, the pre-access depth on a cold load.  The carry
// starts as blk itself and, since now is newer than every stored
// touch, swaps into position 0 first.  At each level i the carry is
// then v_i, the last-touch minimum of the old top i entries — the block
// the i-way cache evicts (every cache with ways <= end misses and is
// full).  A level whose resident entry is older than the carry swaps
// roles: the resident falls, the carry parks.  The final carry parks at
// position end — on a hit it stays resident everywhere deeper — unless
// the stack is already MaxWays deep, where it falls off the deepest
// tracked cache too.
func (e *Engine) cascade(base, end int, blk, now uint64) {
	cb, ct := blk, now
	for i := base; i < base+end; i++ {
		if e.touch[i] < ct {
			e.blocks[i], cb = cb, e.blocks[i]
			e.touch[i], ct = ct, e.touch[i]
		}
	}
	if end < e.maxWays {
		e.blocks[base+end], e.touch[base+end] = cb, ct
	}
}

// AccessStream replays the load/store records of recs in order (loads
// as reads, stores as writes), skipping non-memory records, and returns
// the number of accesses performed.  It is the chunk-consumer entry
// point matching cache.Cache.AccessStream, so an Engine rides the same
// single trace pass as the caches and auxiliary consumers beside it.
func (e *Engine) AccessStream(recs []trace.Rec) uint64 {
	var n uint64
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		e.AccessBlock(recs[i].Addr>>e.offBits, op == trace.OpStore)
		n++
	}
	return n
}

// StatsAt reconstructs the exact statistics of the family's ways-way
// cache — bit-identical to a cache.Cache or cache.Grid point built from
// the same geometry and placement with LRU replacement, write-through
// and no write-allocate.  It panics when ways is outside [1, MaxWays].
func (e *Engine) StatsAt(ways int) cache.Stats {
	if ways < 1 || ways > e.maxWays {
		panic(fmt.Sprintf("stackdist: StatsAt(%d) outside [1, %d]", ways, e.maxWays))
	}
	var st cache.Stats
	for d := 0; d < ways; d++ {
		st.ReadHits += e.loadHitAt[d]
		st.WriteHits += e.storeHitAt[d]
	}
	// Loads that miss the ways-way cache when it is full evict: those
	// found deeper in the stack and cold loads into a set at least ways
	// deep.
	for d := ways; d < e.maxWays; d++ {
		st.Evictions += e.loadHitAt[d]
	}
	for m := ways; m <= e.maxWays; m++ {
		st.Evictions += e.loadColdAt[m]
	}
	st.Accesses = e.loads + e.stores
	st.ReadMisses = e.loads - st.ReadHits
	st.WriteMiss = e.stores - st.WriteHits
	st.Hits = st.ReadHits + st.WriteHits
	st.Misses = st.ReadMisses + st.WriteMiss
	st.Fills = st.ReadMisses
	return st
}
