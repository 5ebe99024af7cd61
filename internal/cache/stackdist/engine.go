package stackdist

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
)

// Engine simulates every associativity 1..MaxWays of one LRU cache
// family — fixed set count, fixed non-skewed index function — in a
// single trace pass.  Each set keeps a truncated stack of its blocks in
// nesting order: position d means the block is resident in exactly the
// caches with more than d ways.  A load found at position d is a hit
// for those caches and a (filling) miss for the rest, so four
// position histograms plus a per-associativity writeback counter are
// enough to reconstruct the exact cache.Stats of every family member.
//
// The stack update is the generalized Mattson cascade: the accessed
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
	// uniform LRU priority), dirtyMin the smallest associativity at
	// which the line is dirty (WriteBack only; clean = maxWays+1).
	blocks   []uint64
	touch    []uint64
	dirtyMin []int32
	depth    []int32 // live stack depth per set

	clock  uint64
	loads  uint64
	stores uint64

	// Position histograms: hits by stack position, cold (absent)
	// accesses by pre-access set depth.  loadHitAt[d] loads found at
	// position d hit every cache with ways > d; loadColdAt[m] cold loads
	// at depth m evict in every cache with ways <= m.
	loadHitAt   []uint64
	storeHitAt  []uint64
	loadColdAt  []uint64
	storeColdAt []uint64
	// wbAt[w] counts dirty evictions from the w-way cache (WriteBack
	// only): victims differ per associativity, so writebacks cannot be
	// reconstructed from a single histogram and are counted directly
	// during the cascade.
	wbAt []uint64
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
		panic("stackdist: skewed placements have no stack property; use cache.Grid")
	}
	if place.Sets() != cfg.Sets {
		panic(fmt.Sprintf("stackdist: placement has %d sets, config says %d", place.Sets(), cfg.Sets))
	}
	e := &Engine{
		cfg:     cfg,
		sets:    cfg.Sets,
		maxWays: cfg.MaxWays,
		offBits: uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		idx:     index.Compile(place, 1),
	}
	n := cfg.Sets * cfg.MaxWays
	e.blocks = make([]uint64, n)
	e.touch = make([]uint64, n)
	if cfg.WriteBack {
		e.dirtyMin = make([]int32, n)
		e.wbAt = make([]uint64, cfg.MaxWays+1)
	}
	e.depth = make([]int32, cfg.Sets)
	e.loadHitAt = make([]uint64, cfg.MaxWays)
	e.storeHitAt = make([]uint64, cfg.MaxWays)
	e.loadColdAt = make([]uint64, cfg.MaxWays+1)
	e.storeColdAt = make([]uint64, cfg.MaxWays+1)
	return e
}

// Config returns the configuration the engine was built with.
func (e *Engine) Config() Config { return e.cfg }

// Sets returns the family's set count.
func (e *Engine) Sets() int { return e.sets }

// MaxWays returns the largest tracked associativity.
func (e *Engine) MaxWays() int { return e.maxWays }

// Access records one load (write=false) or store (write=true) of the
// byte address addr.
func (e *Engine) Access(addr uint64, write bool) {
	e.AccessBlock(addr>>e.offBits, write)
}

// AccessBlock is Access for a pre-computed block address.
func (e *Engine) AccessBlock(blk uint64, write bool) {
	e.clock++
	now := e.clock
	base := int(e.idx[0].Index(blk)) * e.maxWays
	si := base / e.maxWays
	dep := int(e.depth[si])
	d := -1
	for i := 0; i < dep; i++ {
		if e.blocks[base+i] == blk {
			d = i
			break
		}
	}
	if write {
		e.stores++
	} else {
		e.loads++
	}
	alloc := !write || e.cfg.WriteAllocate
	if d >= 0 {
		if write {
			e.storeHitAt[d]++
		} else {
			e.loadHitAt[d]++
		}
		if !alloc {
			// Non-allocating store hit: recency refresh in place.  The
			// nesting order is untouched — caches that miss (ways <= d)
			// do not contain the block and never will until its next
			// fill, which is why position d+1 bounds the dirty range.
			e.touch[base+d] = now
			if e.dirtyMin != nil && int32(d+1) < e.dirtyMin[base+d] {
				e.dirtyMin[base+d] = int32(d + 1)
			}
			return
		}
		e.promote(base, d, blk, now, write)
		return
	}
	if write {
		e.storeColdAt[dep]++
	} else {
		e.loadColdAt[dep]++
	}
	if !alloc {
		return
	}
	e.insertCold(base, si, dep, blk, now, write)
}

// cleanMin is the dirtyMin sentinel for a clean line: no tracked
// associativity holds it dirty.
func (e *Engine) cleanMin() int32 { return int32(e.maxWays + 1) }

// placeTop installs the accessed block at position 0 and returns the
// displaced occupant — the 1-way cache's victim, the cascade's first
// carry.
func (e *Engine) placeTop(base int, blk, now uint64, write bool) (cb, ct uint64, cdm int32) {
	cb, ct = e.blocks[base], e.touch[base]
	e.blocks[base], e.touch[base] = blk, now
	if e.dirtyMin != nil {
		cdm = e.dirtyMin[base]
	}
	return cb, ct, cdm
}

// promote handles an allocating access that found its block at position
// d >= 1: the block moves to the top with refreshed state, and the
// victim cascade runs over positions 1..d.  At each level i the carry
// is v_i, the last-touch minimum of the old top i entries — the block
// the i-way cache evicts (every cache with ways <= d misses and is
// full, since the set is more than d deep).  A level whose resident
// entry is older than the carry swaps roles: the resident falls, the
// carry parks.  The old position d finally receives v_d, which remains
// resident everywhere deeper.
func (e *Engine) promote(base, d int, blk, now uint64, write bool) {
	ndm := e.dirtyMin
	var newMin int32
	if ndm != nil {
		if write {
			// Write-allocate store: a hit dirties the line where it was
			// resident and the fill installs it dirty everywhere else.
			newMin = 1
		} else {
			// Load: caches that missed (ways <= d) refill the line
			// clean; deeper caches keep their dirty state.
			newMin = maxInt32(ndm[base+d], int32(d+1))
		}
	}
	if d == 0 {
		e.touch[base] = now
		if ndm != nil {
			ndm[base] = newMin
		}
		return
	}
	cb, ct, cdm := e.placeTop(base, blk, now, write)
	if ndm != nil {
		ndm[base] = newMin
	}
	for i := 1; i < d; i++ {
		if e.wbAt != nil && cdm <= int32(i) {
			e.wbAt[i]++
		}
		if e.touch[base+i] < ct {
			e.blocks[base+i], cb = cb, e.blocks[base+i]
			e.touch[base+i], ct = ct, e.touch[base+i]
			if ndm != nil {
				ndm[base+i], cdm = cdm, ndm[base+i]
			}
		}
	}
	if e.wbAt != nil && cdm <= int32(d) {
		e.wbAt[d]++
	}
	e.blocks[base+d], e.touch[base+d] = cb, ct
	if ndm != nil {
		ndm[base+d] = cdm
	}
}

// insertCold handles an allocating access whose block is absent from
// the stack: it enters at the top and the cascade walks the whole
// depth.  Caches with ways <= dep are full and evict their victims; the
// final carry parks at position dep when the stack has room and is
// otherwise evicted from the deepest tracked cache too and dropped.
func (e *Engine) insertCold(base, si, dep int, blk, now uint64, write bool) {
	ndm := e.dirtyMin
	var newMin int32
	if ndm != nil {
		newMin = e.cleanMin()
		if write {
			newMin = 1
		}
	}
	if dep == 0 {
		e.blocks[base], e.touch[base] = blk, now
		if ndm != nil {
			ndm[base] = newMin
		}
		e.depth[si] = 1
		return
	}
	cb, ct, cdm := e.placeTop(base, blk, now, write)
	if ndm != nil {
		ndm[base] = newMin
	}
	for i := 1; i < dep; i++ {
		if e.wbAt != nil && cdm <= int32(i) {
			e.wbAt[i]++
		}
		if e.touch[base+i] < ct {
			e.blocks[base+i], cb = cb, e.blocks[base+i]
			e.touch[base+i], ct = ct, e.touch[base+i]
			if ndm != nil {
				ndm[base+i], cdm = cdm, ndm[base+i]
			}
		}
	}
	if e.wbAt != nil && cdm <= int32(dep) {
		e.wbAt[dep]++
	}
	if dep < e.maxWays {
		e.blocks[base+dep], e.touch[base+dep] = cb, ct
		if ndm != nil {
			ndm[base+dep] = cdm
		}
		e.depth[si] = int32(dep + 1)
	}
}

// AccessStream replays the load/store records of recs in order (loads
// as reads, stores as writes), skipping non-memory records, and returns
// the number of accesses performed.  It is the chunk-consumer entry
// point matching cache.Grid.AccessStream, so an Engine rides the same
// single trace pass as a Grid and its auxiliary consumers.
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

// ReplaySource drains up to max records (0 = no limit) from s through
// the engine in chunks, skipping non-memory records, and returns the
// number of records consumed from the source.
func (e *Engine) ReplaySource(s trace.Source, max uint64) uint64 {
	buf := make([]trace.Rec, 4096)
	var consumed uint64
	for {
		want := uint64(len(buf))
		if max != 0 && max-consumed < want {
			want = max - consumed
		}
		if want == 0 {
			return consumed
		}
		n, eof := s.ReadChunk(buf[:want])
		e.AccessStream(buf[:n])
		consumed += uint64(n)
		if eof {
			return consumed
		}
	}
}

// StatsAt reconstructs the exact statistics of the family's ways-way
// cache — bit-identical to a cache.Cache or cache.Grid point built from
// the same geometry, placement and write policy with LRU replacement.
// It panics when ways is outside [1, MaxWays].
func (e *Engine) StatsAt(ways int) cache.Stats {
	if ways < 1 || ways > e.maxWays {
		panic(fmt.Sprintf("stackdist: StatsAt(%d) outside [1, %d]", ways, e.maxWays))
	}
	var st cache.Stats
	var promoL, promoS uint64
	for d := 0; d < e.maxWays; d++ {
		if d < ways {
			st.ReadHits += e.loadHitAt[d]
			st.WriteHits += e.storeHitAt[d]
		} else {
			promoL += e.loadHitAt[d]
			promoS += e.storeHitAt[d]
		}
	}
	var coldEvL, coldEvS uint64
	for m := ways; m <= e.maxWays; m++ {
		coldEvL += e.loadColdAt[m]
		coldEvS += e.storeColdAt[m]
	}
	st.Accesses = e.loads + e.stores
	st.ReadMisses = e.loads - st.ReadHits
	st.WriteMiss = e.stores - st.WriteHits
	st.Hits = st.ReadHits + st.WriteHits
	st.Misses = st.ReadMisses + st.WriteMiss
	st.Fills = st.ReadMisses
	st.Evictions = promoL + coldEvL
	if e.cfg.WriteAllocate {
		st.Fills += st.WriteMiss
		st.Evictions += promoS + coldEvS
	}
	if e.wbAt != nil {
		st.Writebacks = e.wbAt[ways]
	}
	return st
}

// Stats returns StatsAt for every tracked associativity, index w-1
// holding the w-way cache (the Grid-shaped bulk accessor).
func (e *Engine) Stats() []cache.Stats {
	out := make([]cache.Stats, e.maxWays)
	for w := 1; w <= e.maxWays; w++ {
		out[w-1] = e.StatsAt(w)
	}
	return out
}

// Reset returns the engine to its just-constructed state without
// reallocating.
func (e *Engine) Reset() {
	for i := range e.blocks {
		e.blocks[i] = 0
		e.touch[i] = 0
	}
	for i := range e.dirtyMin {
		e.dirtyMin[i] = 0
	}
	for i := range e.depth {
		e.depth[i] = 0
	}
	e.clock, e.loads, e.stores = 0, 0, 0
	zero64(e.loadHitAt)
	zero64(e.storeHitAt)
	zero64(e.loadColdAt)
	zero64(e.storeColdAt)
	zero64(e.wbAt)
}

func zero64(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
