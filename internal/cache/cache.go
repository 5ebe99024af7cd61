// Package cache implements the cache organizations evaluated by the
// paper and its companion study [10]: direct-mapped, set-associative and
// fully-associative caches with pluggable placement functions (including
// skewed and I-Poly placements), victim caches, and column-associative /
// hash-rehash caches with polynomial rehashing.
//
// Caches are behavioural models: they track tags, hit/miss outcomes,
// evictions and write traffic, but hold no data.  Timing is layered on
// top by the CPU model (package cpu) and the MSHR/bus models (package
// mshr).
//
// The access engine is allocation-free and layout-optimized: lines live
// in one flat set-major slice (all ways of a set contiguous, so a
// non-skewed lookup is a single cache-friendly scan), the placement
// function is compiled once at New into byte lookup tables
// (index.Compile), and lookup and fill are fused so set indices are
// computed exactly once per access.  The index.Placement interface is
// consulted only at New.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ReplPolicy selects a replacement policy.
type ReplPolicy int

// Replacement policies.  Each works everywhere, including skewed caches
// where the candidate lines live in different sets per way.
const (
	LRU ReplPolicy = iota
	FIFO
	Random
)

// String returns the policy name.
func (p ReplPolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("repl(%d)", int(p))
}

// Config describes a cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// BlockSize is the line size in bytes (power of two).
	BlockSize int
	// Ways is the associativity; Size/BlockSize/Ways sets result.
	Ways int
	// Placement maps block addresses to set indices.  If nil, a
	// conventional modulo placement over the implied set count is used.
	Placement index.Placement
	// Replacement selects the victim-choice policy (default LRU).
	Replacement ReplPolicy
	// WriteBack selects write-back (true) or write-through (false).
	WriteBack bool
	// WriteAllocate controls whether store misses fill the cache.  The
	// paper's L1 is write-through non-allocating.
	WriteAllocate bool
}

// maxLines bounds the lines (size/block) of a cache built from user
// input: 1<<20 lines are 32 MiB of line metadata per cache, and a
// time-sharded replay holds up to GOMAXPROCS such caches at once.  A
// larger request would exhaust memory inside a job, a fatal runtime
// error that takes `repro serve` down with it, not a recoverable panic.
const maxLines = 1 << 20

// CheckGeometry validates a (size, block, ways) cache geometry without
// constructing anything, surfaced as an error so the CLI and experiment
// configs can reject bad flag values with a usage message instead of a
// crash.  numSets, which every constructor calls, panics with the same
// error.
func CheckGeometry(size, block, ways int) error {
	switch {
	case size <= 0:
		return fmt.Errorf("cache size must be positive (got %d)", size)
	case block <= 0:
		return fmt.Errorf("block size must be positive (got %d)", block)
	case ways <= 0:
		return fmt.Errorf("ways must be positive (got %d)", ways)
	case block&(block-1) != 0:
		return fmt.Errorf("block size must be a power of two (got %d)", block)
	case size%block != 0:
		return fmt.Errorf("cache size %d is not a multiple of block size %d", size, block)
	case size/block > maxLines:
		return fmt.Errorf("%d lines (size/block) exceed the limit of %d", size/block, maxLines)
	case (size/block)%ways != 0:
		return fmt.Errorf("%d blocks do not divide evenly into %d ways", size/block, ways)
	}
	if sets := size / block / ways; sets&(sets-1) != 0 {
		return fmt.Errorf("set count %d (= size/block/ways) must be a power of two", sets)
	}
	return nil
}

// SetBits returns log2 of the implied number of sets.
func (c Config) SetBits() int { return bits.TrailingZeros(uint(c.numSets())) }

// numSets returns the implied number of sets, panicking with
// CheckGeometry's error on an invalid geometry.
func (c Config) numSets() int {
	if err := CheckGeometry(c.Size, c.BlockSize, c.Ways); err != nil {
		panic("cache: " + err.Error())
	}
	return c.Size / c.BlockSize / c.Ways
}

// line is one cache line's metadata.
type line struct {
	block    uint64 // full block address (tag)
	valid    bool
	dirty    bool
	lastUse  uint64
	inserted uint64
}

// Stats accumulates access outcomes.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMiss   uint64
	Evictions   uint64 // valid lines displaced by fills
	Writebacks  uint64 // dirty evictions (write-back caches)
	Invalidates uint64
	Fills       uint64
}

// MissRatio returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// ReadMissRatio returns the load miss ratio (the paper's tables report
// load misses).
func (s Stats) ReadMissRatio() float64 {
	reads := s.ReadHits + s.ReadMisses
	if reads == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(reads)
}

// Result reports the outcome of one access.
type Result struct {
	Hit          bool
	Set          uint64 // set index used (way-specific for skewed hits/fills)
	Way          int
	Filled       bool   // a line was installed
	Evicted      uint64 // block displaced by the fill
	EvictedValid bool
	EvictedDirty bool
}

// Cache is a set-associative cache with a pluggable placement function.
// It is not safe for concurrent use.
type Cache struct {
	cfg     Config
	sets    int
	ways    int
	offBits int

	idx    index.Compiled // the placement compiled to byte tables
	skewed bool           // false: every way uses way 0's index

	// lines is the flat set-major line store: way w of set s lives at
	// lines[int(s)*ways + w], so all candidate ways of a non-skewed
	// access are contiguous in memory.
	lines []line
	// setScratch holds the per-way set indices of the current access,
	// computed once by lookup and reused by victim choice and fill.
	setScratch []uint64
	clock      uint64
	rnd        *rng.RNG
	stats      Stats

	// OnEvict, if non-nil, is called with the block address whenever a
	// valid line is evicted by a fill.  The hierarchy package uses it to
	// keep reverse residency state in sync (§3.2).  The callback must not
	// re-enter the cache it is attached to.
	OnEvict func(block uint64, dirty bool)
}

// replSeed seeds Random replacement's fixed stream, so a run repeats
// run to run.
const replSeed = 0xCAFE

// New builds a cache from cfg.  It panics on invalid geometry or on a
// placement whose set count disagrees with the geometry.
func New(cfg Config) *Cache {
	sets := cfg.numSets()
	place := cfg.Placement
	if place == nil {
		place = index.NewModulo(bits.TrailingZeros(uint(sets)))
	}
	if place.Sets() != sets {
		panic(fmt.Sprintf("cache: placement has %d sets, geometry implies %d", place.Sets(), sets))
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		offBits:    bits.TrailingZeros(uint(cfg.BlockSize)),
		idx:        index.Compile(place, cfg.Ways),
		skewed:     place.Skewed(),
		lines:      make([]line, sets*cfg.Ways),
		setScratch: make([]uint64, cfg.Ways),
		rnd:        rng.New(replSeed),
	}
}

// reset returns c to the state New left it in: every line invalid, the
// clock, statistics and Random replacement's stream restarted.
func (c *Cache) reset() {
	c.Flush()
	c.clock = 0
	c.stats = Stats{}
	c.rnd = rng.New(replSeed)
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Block converts a byte address to a block address.
func (c *Cache) Block(addr uint64) uint64 { return addr >> uint(c.offBits) }

// Access performs a read (write=false) or write (write=true) of the byte
// address addr, updating state and statistics, and reports the outcome.
func (c *Cache) Access(addr uint64, write bool) Result {
	return c.AccessBlock(c.Block(addr), write)
}

// AccessBlock is Access for a pre-computed block address.  Lookup and
// fill are fused: lookup records each way's set index once, and a miss's
// victim choice and fill reuse them.
func (c *Cache) AccessBlock(block uint64, write bool) Result {
	c.clock++
	c.stats.Accesses++
	if w, s, ok := c.lookup(block); ok {
		c.hitStats(write)
		ln := &c.lines[int(s)*c.ways+w]
		if write && c.cfg.WriteBack {
			ln.dirty = true
		}
		ln.lastUse = c.clock
		return Result{Hit: true, Set: s, Way: w}
	}
	c.missStats(write)
	if write && !c.cfg.WriteAllocate {
		// Write-through non-allocating store miss: no fill.
		return Result{Hit: false}
	}
	w := c.victimWay()
	s := c.setScratch[w]
	ln := &c.lines[int(s)*c.ways+w]
	res := c.install(w, s, ln, block)
	if write && c.cfg.WriteBack {
		ln.dirty = true
	}
	return res
}

func (c *Cache) hitStats(write bool) {
	c.stats.Hits++
	if write {
		c.stats.WriteHits++
	} else {
		c.stats.ReadHits++
	}
}

func (c *Cache) missStats(write bool) {
	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMisses++
	}
}

// install evicts ln's occupant (if valid) and installs block, updating
// eviction statistics, the OnEvict hook and recency state.
func (c *Cache) install(w int, s uint64, ln *line, block uint64) Result {
	res := Result{Set: s, Way: w, Filled: true}
	if ln.valid {
		res.Evicted = ln.block
		res.EvictedValid = true
		res.EvictedDirty = ln.dirty
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
		}
		if c.OnEvict != nil {
			c.OnEvict(ln.block, ln.dirty)
		}
	}
	*ln = line{block: block, valid: true, lastUse: c.clock, inserted: c.clock}
	c.stats.Fills++
	return res
}

// victimWay picks the way to fill after a lookup that missed, from the
// per-way set indices it recorded: the first invalid way in ascending
// way order, whatever the policy, else the policy's choice.
func (c *Cache) victimWay() int {
	idx := c.setScratch
	for w := 0; w < c.ways; w++ {
		if !c.lines[int(idx[w])*c.ways+w].valid {
			return w
		}
	}
	switch c.cfg.Replacement {
	case FIFO:
		best, bestAge := 0, ^uint64(0)
		for w := 0; w < c.ways; w++ {
			if t := c.lines[int(idx[w])*c.ways+w].inserted; t < bestAge {
				best, bestAge = w, t
			}
		}
		return best
	case Random:
		return c.rnd.Intn(c.ways)
	default: // LRU
		best, bestAge := 0, ^uint64(0)
		for w := 0; w < c.ways; w++ {
			if t := c.lines[int(idx[w])*c.ways+w].lastUse; t < bestAge {
				best, bestAge = w, t
			}
		}
		return best
	}
}

// AccessStream replays the load/store records of recs in order through
// the cache (loads as reads, stores as writes), skipping non-memory
// records, and returns the number of accesses performed.  It is the
// batched trace-replay entry point, the consumer of one trace.Source
// chunk: the block shift is hoisted out of the loop.
func (c *Cache) AccessStream(recs []trace.Rec) uint64 {
	off := uint(c.offBits)
	var n uint64
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		c.AccessBlock(recs[i].Addr>>off, op == trace.OpStore)
		n++
	}
	return n
}

// ReplaySource drains up to max records (0 = no limit) from s through
// the cache in chunks, skipping non-memory records, and returns the
// number of records consumed from the source.
func (c *Cache) ReplaySource(s trace.Source, max uint64) uint64 {
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
		c.AccessStream(buf[:n])
		consumed += uint64(n)
		if eof {
			return consumed
		}
	}
}

// replayMemRecs drives the load/store records of recs in order through
// access, skipping non-memory records, and returns the number of
// accesses performed.  It is the shared filter-and-replay loop behind
// the organization wrappers' AccessStream methods.
func replayMemRecs(recs []trace.Rec, access func(addr uint64, write bool)) uint64 {
	var n uint64
	for i := range recs {
		op := recs[i].Op
		if op != trace.OpLoad && op != trace.OpStore {
			continue
		}
		access(recs[i].Addr, op == trace.OpStore)
		n++
	}
	return n
}

// Probe reports whether block (a block address) is present, without
// changing any state or statistics.
func (c *Cache) Probe(block uint64) bool {
	_, _, ok := c.lookup(block)
	return ok
}

// Locate returns the frame (way, set) holding block, without changing
// any state or statistics.  The hierarchy package uses it to maintain
// its per-L2-frame residency index.
func (c *Cache) Locate(block uint64) (way int, set uint64, ok bool) {
	return c.lookup(block)
}

// InsertBlock installs block as if by a fill, carrying the given dirty
// state, WITHOUT recording a demand access (Accesses/Hits/Misses are
// untouched; Fills, Evictions and Writebacks still count).  If the block
// is already present its line is touched and its dirty bit merged.  The
// victim-cache organization uses it to demote evicted main-cache lines
// into the buffer: demotions are internal traffic, not demand accesses,
// and must not lose the evicted line's dirty bit.
func (c *Cache) InsertBlock(block uint64, dirty bool) Result {
	c.clock++
	if w, s, ok := c.lookup(block); ok {
		ln := &c.lines[int(s)*c.ways+w]
		ln.lastUse = c.clock
		ln.dirty = ln.dirty || dirty
		return Result{Hit: true, Set: s, Way: w}
	}
	w := c.victimWay()
	s := c.setScratch[w]
	ln := &c.lines[int(s)*c.ways+w]
	res := c.install(w, s, ln, block)
	ln.dirty = dirty
	return res
}

// Invalidate removes block (a block address) if present, returning true
// when a line was dropped.  The OnEvict hook is NOT called (invalidation
// is itself usually a downward coherence action).
func (c *Cache) Invalidate(block uint64) bool {
	_, ok := c.Extract(block)
	return ok
}

// Extract is Invalidate reporting the dropped line's dirty bit: one
// lookup removes the line and returns whether it was present and dirty.
// The victim-cache swap path uses it to recover a buffered line's
// pending writeback without re-scanning the buffer.
func (c *Cache) Extract(block uint64) (dirty, ok bool) {
	if w, s, found := c.lookup(block); found {
		ln := &c.lines[int(s)*c.ways+w]
		dirty = ln.dirty
		*ln = line{}
		c.stats.Invalidates++
		return dirty, true
	}
	return false, false
}

// Flush invalidates every line, leaving the statistics and the recency
// clock as they are.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// Contents returns the block addresses of all valid lines, for inclusion
// audits.
func (c *Cache) Contents() []uint64 {
	var out []uint64
	for i := range c.lines {
		if c.lines[i].valid {
			out = append(out, c.lines[i].block)
		}
	}
	return out
}

// lookup scans block's candidate frames way by way and returns the
// (way, set) holding it.  Each way's set index is computed at most once,
// lazily (a hit at way w never pays for the ways beyond it), and recorded
// in setScratch, so after a miss every way's index is there for the
// victim choice and fill.  A non-skewed placement's ways reuse way 0's
// index: their frames are one contiguous set.
func (c *Cache) lookup(block uint64) (way int, set uint64, ok bool) {
	var s uint64
	for w := 0; w < c.ways; w++ {
		if w == 0 || c.skewed {
			s = c.idx[w].Index(block)
		}
		c.setScratch[w] = s
		ln := &c.lines[int(s)*c.ways+w]
		if ln.valid && ln.block == block {
			return w, s, true
		}
	}
	return 0, 0, false
}
