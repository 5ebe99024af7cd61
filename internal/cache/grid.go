// Grid is the single-pass multi-configuration simulation engine: one
// trace replay advances every configuration point of a design-space
// grid.  The experiment drivers use it to turn "one trace pass per
// design point" into "one trace pass per benchmark" — trace decode,
// chunk iteration and address pre-splitting are paid once per chunk and
// shared by all configurations, while each configuration's simulation
// is bit-identical to an independent Cache built from the same Config
// (pinned by grid_diff_test.go and FuzzGridAccess).
//
// Layout: all configurations' lines live in shared struct-of-arrays
// backing slices — one uint64 tag slice, one dirty-bit slice, and
// recency stamps allocated only when some configuration's
// replacement policy reads them — with configuration k's set-major
// region starting at its precomputed base offset.  Hot-path tag probes
// therefore touch 8-byte entries instead of 32-byte line structs, and
// configurations that never consult LRU/FIFO stamps (direct-mapped
// points, random/PLRU replacement) skip stamp maintenance entirely.
// Each configuration's placement is compiled at NewGrid into byte
// lookup tables (index.Compile, as in Cache), and an empty line holds a
// sentinel tag no block address can equal, so a hit probe is a single
// tag compare.  Two replay loops serve every point: one for non-skewed
// and one for skewed placements.
package cache

import (
	"math/bits"

	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GridSpec lists the configuration points of a Grid, one Config per
// point.  Order is significant: stats are reported in spec order.
type GridSpec []Config

// GridStats is the per-configuration statistics vector of a Grid, in
// spec order.
type GridStats []Stats

// gridNoTag fills invalid lines' tag slots.  Grid block sizes are at
// least 2 bytes, so every block address has a zero top bit and none
// equals the sentinel: an invalid line can never produce a false hit.
const gridNoTag = ^uint64(0)

// gridPoint is one configuration's simulation state.  The line arrays
// live in the Grid's shared backing slices starting at base.
type gridPoint struct {
	cfg  Config
	ways int
	// shift is the extra block shift the replay loop applies: 0 when the
	// grid pre-splits addresses into block addresses (uniform block
	// size), the point's offset bits otherwise.
	shift uint

	idx    index.Compiled // the placement compiled to byte tables
	skewed bool

	base    int      // first line index in the backing arrays
	plru    []uint64 // tree-PLRU state per set (PLRU only)
	scratch []int    // per-way candidate lines of the current skewed access

	// needLast / needIns gate recency-stamp maintenance: lastUse is only
	// read by LRU victim choice, inserted only by FIFO, and neither
	// matters with a single way.
	needLast bool
	needIns  bool
	wb       bool // cfg.WriteBack (hoisted for the inner loops)
	wa       bool // cfg.WriteAllocate

	clock uint64
	rnd   *rng.RNG
	stats Stats
}

// Grid simulates every configuration of a GridSpec in one pass over a
// trace.  It is not safe for concurrent use.
type Grid struct {
	pts []gridPoint

	// Shared SoA backing: blocks holds tags (gridNoTag when invalid),
	// dirty the dirty bits (written by write-back points only),
	// lastUse/inserted the recency stamps (nil when no point needs them).
	blocks   []uint64
	dirty    []bool
	lastUse  []uint64
	inserted []uint64

	// uniform is true when every point shares one block size, letting
	// AccessStream pre-split addresses into block addresses once.
	uniform bool
	shift   uint

	// Chunk scratch reused across AccessStream calls: the memory records
	// of the current chunk, pre-split.
	blkbuf []uint64
	wrbuf  []bool
}

// NewGrid builds a grid over the given configuration points.  It panics
// on an empty spec, applies the same per-configuration validation as
// New (geometry, placement set count, PLRU constraints), and panics on
// BlockSize 1, where the empty-line sentinel is a reachable block
// address.
func NewGrid(spec GridSpec) *Grid {
	if len(spec) == 0 {
		panic("cache: NewGrid needs at least one configuration")
	}
	g := &Grid{pts: make([]gridPoint, len(spec)), uniform: true}
	total := 0
	needLast, needIns := false, false
	for k, cfg := range spec {
		sets, place := resolveGeometry(cfg)
		if cfg.BlockSize == 1 {
			panic("cache: NewGrid needs BlockSize >= 2")
		}
		p := &g.pts[k]
		*p = gridPoint{
			cfg:      cfg,
			ways:     cfg.Ways,
			shift:    uint(bits.TrailingZeros(uint(cfg.BlockSize))),
			idx:      index.Compile(place, cfg.Ways),
			skewed:   place.Skewed(),
			base:     total,
			needLast: cfg.Ways > 1 && cfg.Replacement == LRU,
			needIns:  cfg.Ways > 1 && cfg.Replacement == FIFO,
			wb:       cfg.WriteBack,
			wa:       cfg.WriteAllocate,
			rnd:      rng.New(cfg.Seed ^ 0xCAFE),
		}
		total += sets * cfg.Ways
		if cfg.Replacement == PLRU {
			p.plru = make([]uint64, sets)
		}
		if p.skewed {
			p.scratch = make([]int, cfg.Ways)
		}
		needLast = needLast || p.needLast
		needIns = needIns || p.needIns
		if p.shift != g.pts[0].shift {
			g.uniform = false
		}
	}
	g.blocks = make([]uint64, total)
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	g.dirty = make([]bool, total)
	if needLast {
		g.lastUse = make([]uint64, total)
	}
	if needIns {
		g.inserted = make([]uint64, total)
	}
	if g.uniform {
		// Pre-split produces block addresses; the per-point replay loops
		// apply no further shift.  With mixed block sizes the pre-split
		// keeps raw addresses and each point shifts itself.
		g.shift = g.pts[0].shift
		for k := range g.pts {
			g.pts[k].shift = 0
		}
	}
	return g
}

// Len returns the number of configuration points.
func (g *Grid) Len() int { return len(g.pts) }

// Config returns point k's configuration.
func (g *Grid) Config(k int) Config { return g.pts[k].cfg }

// StatsAt returns a copy of point k's accumulated statistics.
func (g *Grid) StatsAt(k int) Stats { return g.pts[k].stats }

// Stats returns a copy of every point's statistics, in spec order.
func (g *Grid) Stats() GridStats {
	out := make(GridStats, len(g.pts))
	for k := range g.pts {
		out[k] = g.pts[k].stats
	}
	return out
}

// ResetStats zeroes every point's statistics without disturbing cache
// contents or replacement state (the Grid analogue of Cache.ResetStats).
func (g *Grid) ResetStats() {
	for k := range g.pts {
		g.pts[k].stats = Stats{}
	}
}

// Reset returns the grid to its just-constructed state: all lines
// invalid, statistics zeroed, clocks and replacement RNG streams
// re-seeded.  A Reset grid behaves bit-identically to a fresh
// NewGrid of the same spec, without reallocating the backing arrays.
func (g *Grid) Reset() {
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	clear(g.dirty)
	for k := range g.pts {
		p := &g.pts[k]
		p.stats = Stats{}
		p.clock = 0
		p.rnd = rng.New(p.cfg.Seed ^ 0xCAFE)
		for i := range p.plru {
			p.plru[i] = 0
		}
	}
}

// AccessStream replays the load/store records of recs in order through
// every configuration point (loads as reads, stores as writes), skipping
// non-memory records, and returns the number of accesses performed per
// point.  The chunk is decoded and pre-split exactly once: the memory
// records' addresses and write flags are extracted into reusable scratch
// buffers, then each point's replay loop consumes them.  Point k's state
// and statistics afterwards are bit-identical to an independent Cache
// fed the same records.
func (g *Grid) AccessStream(recs []trace.Rec) uint64 {
	blks := g.blkbuf[:0]
	wr := g.wrbuf[:0]
	shift := uint(0)
	if g.uniform {
		shift = g.shift
	}
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		blks = append(blks, recs[i].Addr>>shift)
		wr = append(wr, op == trace.OpStore)
	}
	g.blkbuf, g.wrbuf = blks, wr
	for k := range g.pts {
		p := &g.pts[k]
		if p.skewed {
			g.replaySkewed(p, blks, wr)
		} else {
			g.replayUniform(p, blks, wr)
		}
	}
	return uint64(len(blks))
}

// replayUniform drives one non-skewed point through the pre-split chunk,
// mirroring Cache.accessUniform decision-for-decision.  Statistics and
// the recency clock accumulate in locals and flush once per chunk, so
// the inner loop's bookkeeping is register arithmetic rather than
// per-access memory read-modify-writes; the hit scan is a pure
// sentinel-tag compare.
func (g *Grid) replayUniform(p *gridPoint, blks []uint64, wr []bool) {
	blocks, dirty := g.blocks, g.dirty
	ways := p.ways
	wb, wa := p.wb, p.wa
	way0 := p.idx[0]
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		s := way0.Index(blk)
		base := p.base + int(s)*ways
		li, end := base, base+ways
		for li < end && blocks[li] != blk {
			li++
		}
		if li < end {
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					dirty[li] = true
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[li] = clock
			}
			if p.plru != nil {
				plruTouchWord(&p.plru[s], ways, li-base)
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				// Write-through non-allocating store miss: no fill.
				continue
			}
		} else {
			st.ReadMisses++
		}
		w := 0 // a single way is its own victim
		if ways > 1 {
			w = g.victimUniform(p, s, base)
		}
		g.install(p, &st, clock, base+w, blk, write)
		if p.plru != nil {
			plruTouchWord(&p.plru[s], ways, w)
		}
	}
	p.stats = st
	p.clock = clock
}

// victimUniform picks the way a multi-way non-skewed point fills in set
// s, whose lines start at base: the first invalid way, else the
// replacement policy's victim.
func (g *Grid) victimUniform(p *gridPoint, s uint64, base int) int {
	for w, tag := range g.blocks[base : base+p.ways] {
		if tag == gridNoTag {
			return w
		}
	}
	switch p.cfg.Replacement {
	case FIFO:
		return oldest(g.inserted[base : base+p.ways])
	case Random:
		return p.rnd.Intn(p.ways)
	case PLRU:
		return plruVictimWord(p.plru[s], p.ways)
	default: // LRU
		return oldest(g.lastUse[base : base+p.ways])
	}
}

// oldest returns the position of the smallest stamp, the first on ties.
func oldest(stamps []uint64) int {
	w := 0
	for v, t := range stamps {
		if t < stamps[w] {
			w = v
		}
	}
	return w
}

// replaySkewed drives one skewed point through the pre-split chunk,
// mirroring Cache.accessSkewed: each way's candidate line is computed
// at most once — lazily during the hit scan, recorded into the point's
// scratch so a miss's victim choice and fill reuse it.
func (g *Grid) replaySkewed(p *gridPoint, blks []uint64, wr []bool) {
	blocks, dirty := g.blocks, g.dirty
	ways := p.ways
	wb, wa := p.wb, p.wa
	lines := p.scratch
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		blk >>= p.shift
		write := wr[i]
		clock++
		st.Accesses++
		hit := -1
		for w := range lines {
			li := p.base + int(p.idx[w].Index(blk))*ways + w
			lines[w] = li
			if blocks[li] == blk {
				hit = li
				break
			}
		}
		if hit >= 0 {
			st.Hits++
			if write {
				st.WriteHits++
				if wb {
					dirty[hit] = true
				}
			} else {
				st.ReadHits++
			}
			if p.needLast {
				g.lastUse[hit] = clock
			}
			continue
		}
		st.Misses++
		if write {
			st.WriteMiss++
			if !wa {
				continue
			}
		} else {
			st.ReadMisses++
		}
		li := lines[0] // a single way is its own victim
		if ways > 1 {
			li = g.victimSkewed(p)
		}
		g.install(p, &st, clock, li, blk, write)
	}
	p.stats = st
	p.clock = clock
}

// victimSkewed picks the line a multi-way skewed point fills, given the
// per-way candidate lines of the current access in its scratch: the
// first invalid candidate, else the replacement policy's victim.
func (g *Grid) victimSkewed(p *gridPoint) int {
	lines := p.scratch
	for _, li := range lines {
		if g.blocks[li] == gridNoTag {
			return li
		}
	}
	stamps := g.lastUse
	switch p.cfg.Replacement {
	case FIFO:
		stamps = g.inserted
	case Random:
		return lines[p.rnd.Intn(p.ways)]
	}
	// LRU; PLRU is rejected for skewed placements at NewGrid.
	best := lines[0]
	for _, li := range lines[1:] {
		if stamps[li] < stamps[best] {
			best = li
		}
	}
	return best
}

// install evicts line li's occupant (valid iff its tag differs from the
// sentinel) and installs blk, updating eviction statistics and recency
// stamps.  Only write-back points maintain dirty bits.
func (g *Grid) install(p *gridPoint, st *Stats, clock uint64, li int, blk uint64, write bool) {
	if g.blocks[li] != gridNoTag {
		st.Evictions++
		if p.wb && g.dirty[li] {
			st.Writebacks++
		}
	}
	g.blocks[li] = blk
	if p.wb {
		g.dirty[li] = write
	}
	if p.needLast {
		g.lastUse[li] = clock
	}
	if p.needIns {
		g.inserted[li] = clock
	}
	st.Fills++
}
