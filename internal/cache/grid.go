// Grid is the single-pass multi-configuration simulation engine: one
// trace replay advances every configuration point of a design-space
// grid.  The experiment drivers use it to turn "one trace pass per
// design point" into "one trace pass per benchmark" — trace decode,
// chunk iteration and address pre-splitting are paid once per chunk and
// shared by all configurations, while each configuration's simulation
// is bit-identical to an independent Cache built from the same Config
// (pinned by grid_diff_test.go and FuzzGridAccess).
//
// Every point is an LRU, write-through, no-write-allocate cache of one
// shared block size: the paper's L1, and the only shape the drivers
// sweep.  Other replacement policies and write modes run on Cache.
//
// Layout: all configurations' lines live in shared struct-of-arrays
// backing slices — one uint64 tag slice, and LRU recency stamps
// allocated only when some point has more than one way — with
// configuration k's set-major region starting at its precomputed base
// offset.  Hot-path tag probes therefore touch 8-byte entries instead
// of 32-byte line structs, and direct-mapped points skip stamp
// maintenance entirely.  Each configuration's placement is compiled at
// NewGrid into byte lookup tables (index.Compile, as in Cache), and an
// empty line holds a sentinel tag no block address can equal, so a hit
// probe is a single tag compare.  One replay loop serves every point: a
// conventional (non-skewed) point is a skewed one whose ways all share
// way 0's index.
package cache

import (
	"math/bits"

	"repro/internal/index"
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

	idx    index.Compiled // the placement compiled to byte tables
	skewed bool           // false: every way uses way 0's index

	base    int   // first line index in the backing arrays
	scratch []int // per-way candidate lines of the current access

	clock uint64
	stats Stats
}

// Grid simulates every configuration of a GridSpec in one pass over a
// trace.  It is not safe for concurrent use.
type Grid struct {
	pts []gridPoint

	// Shared SoA backing: blocks holds tags (gridNoTag when invalid),
	// lastUse the LRU recency stamps (nil when every point is
	// direct-mapped, where a single way is its own victim).
	blocks  []uint64
	lastUse []uint64

	// shift turns a byte address into a block address; AccessStream
	// pre-splits each chunk with it once for every point.
	shift uint

	// Chunk scratch reused across AccessStream calls: the memory records
	// of the current chunk, pre-split.
	blkbuf []uint64
	wrbuf  []bool
}

// NewGrid builds a grid over the given configuration points.  It panics
// on an empty spec and applies the same per-configuration validation as
// New (geometry, placement set count).  It also panics on a point that
// is not an LRU, write-through, no-write-allocate cache, on a block
// size that differs from point 0's, and on BlockSize 1, where the
// empty-line sentinel is a reachable block address.
func NewGrid(spec GridSpec) *Grid {
	if len(spec) == 0 {
		panic("cache: NewGrid needs at least one configuration")
	}
	g := &Grid{
		pts:   make([]gridPoint, len(spec)),
		shift: uint(bits.TrailingZeros(uint(spec[0].BlockSize))),
	}
	total, stamped := 0, false
	for k, cfg := range spec {
		sets, place := resolveGeometry(cfg)
		switch {
		case cfg.BlockSize == 1:
			panic("cache: NewGrid needs BlockSize >= 2")
		case cfg.BlockSize != spec[0].BlockSize:
			panic("cache: NewGrid needs one block size for every point")
		case cfg.Replacement != LRU:
			panic("cache: NewGrid simulates LRU replacement only")
		case cfg.WriteBack:
			panic("cache: NewGrid simulates write-through caches only")
		case cfg.WriteAllocate:
			panic("cache: NewGrid simulates no-write-allocate caches only")
		}
		p := &g.pts[k]
		*p = gridPoint{
			cfg:     cfg,
			ways:    cfg.Ways,
			idx:     index.Compile(place, cfg.Ways),
			skewed:  place.Skewed(),
			base:    total,
			scratch: make([]int, cfg.Ways),
		}
		total += sets * cfg.Ways
		stamped = stamped || cfg.Ways > 1
	}
	g.blocks = make([]uint64, total)
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	if stamped {
		g.lastUse = make([]uint64, total)
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
// invalid, statistics and clocks zeroed.  A Reset grid behaves
// bit-identically to a fresh NewGrid of the same spec, without
// reallocating the backing arrays.
func (g *Grid) Reset() {
	for i := range g.blocks {
		g.blocks[i] = gridNoTag
	}
	for k := range g.pts {
		g.pts[k].stats = Stats{}
		g.pts[k].clock = 0
	}
}

// AccessStream replays the load/store records of recs in order through
// every configuration point (loads as reads, stores as writes), skipping
// non-memory records, and returns the number of accesses performed per
// point.  The chunk is decoded and pre-split exactly once: the memory
// records' block addresses and write flags are extracted into reusable
// scratch buffers, then each point's replay loop consumes them.  Point
// k's state and statistics afterwards are bit-identical to an
// independent Cache fed the same records.
func (g *Grid) AccessStream(recs []trace.Rec) uint64 {
	blks := g.blkbuf[:0]
	wr := g.wrbuf[:0]
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		blks = append(blks, recs[i].Addr>>g.shift)
		wr = append(wr, op == trace.OpStore)
	}
	g.blkbuf, g.wrbuf = blks, wr
	for k := range g.pts {
		g.replay(&g.pts[k], blks, wr)
	}
	return uint64(len(blks))
}

// replay drives one point through the pre-split chunk, mirroring
// Cache.AccessBlock decision for decision: each way's candidate line is
// computed at most once — lazily during the hit scan, recorded into the
// point's scratch so a miss's victim choice and fill reuse it — and a
// non-skewed point's ways reuse way 0's index, so their candidates are
// one contiguous set.  Statistics and the recency clock accumulate in
// locals and flush once per chunk, so the inner loop's bookkeeping is
// register arithmetic rather than per-access memory read-modify-writes;
// the hit scan is a pure sentinel-tag compare.
func (g *Grid) replay(p *gridPoint, blks []uint64, wr []bool) {
	blocks := g.blocks
	ways := p.ways
	lines := p.scratch
	st := p.stats
	clock := p.clock
	for i, blk := range blks {
		write := wr[i]
		clock++
		st.Accesses++
		hit, row := -1, 0
		for w := range lines {
			if w == 0 || p.skewed {
				row = p.base + int(p.idx[w].Index(blk))*ways
			}
			li := row + w
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
			} else {
				st.ReadHits++
			}
			if ways > 1 {
				g.lastUse[hit] = clock
			}
			continue
		}
		st.Misses++
		if write {
			// Write-through non-allocating store miss: no fill.
			st.WriteMiss++
			continue
		}
		st.ReadMisses++
		li := lines[0] // a single way is its own victim
		if ways > 1 {
			li = g.victim(lines)
		}
		g.install(p, &st, clock, li, blk)
	}
	p.stats = st
	p.clock = clock
}

// victim picks the line a multi-way point fills, given the per-way
// candidate lines of the current access: the first invalid candidate,
// else the least recently used.
func (g *Grid) victim(lines []int) int {
	for _, li := range lines {
		if g.blocks[li] == gridNoTag {
			return li
		}
	}
	best := lines[0]
	for _, li := range lines[1:] {
		if g.lastUse[li] < g.lastUse[best] {
			best = li
		}
	}
	return best
}

// install evicts line li's occupant (valid iff its tag differs from the
// sentinel) and installs blk, updating eviction statistics and the
// recency stamp.
func (g *Grid) install(p *gridPoint, st *Stats, clock uint64, li int, blk uint64) {
	if g.blocks[li] != gridNoTag {
		st.Evictions++
	}
	g.blocks[li] = blk
	if p.ways > 1 {
		g.lastUse[li] = clock
	}
	st.Fills++
}
