package cache

import (
	"math/bits"
	"testing"

	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/trace"
)

// refCache is a reference re-implementation of the pre-flat-layout
// access engine: way-major [][]line storage, interface dispatch on every
// index computation, and separate lookup / victim / fill passes.  The
// property tests below pin the production engine against it: both must
// agree on every outcome of an access, an insert, a probe or an extract
// (hit/miss, way, set, eviction and its dirty bit) and on all
// statistics, over randomized workloads covering every placement
// family, replacement policy and write mode.
type refCache struct {
	cfg   Config
	place index.Placement
	ways  int
	off   int
	lines [][]line
	clock uint64
	rnd   *rng.RNG
	stats Stats
}

func newRef(cfg Config) *refCache {
	sets := cfg.numSets()
	place := cfg.Placement
	if place == nil {
		place = index.NewModulo(bits.TrailingZeros(uint(sets)))
	}
	r := &refCache{
		cfg:   cfg,
		place: place,
		ways:  cfg.Ways,
		off:   bits.TrailingZeros(uint(cfg.BlockSize)),
		rnd:   rng.New(0xCAFE),
	}
	r.lines = make([][]line, cfg.Ways)
	for w := range r.lines {
		r.lines[w] = make([]line, sets)
	}
	return r
}

func (r *refCache) access(addr uint64, write bool) Result {
	block := addr >> uint(r.off)
	r.clock++
	r.stats.Accesses++
	if w, s, ok := r.lookup(block); ok {
		r.stats.Hits++
		if write {
			r.stats.WriteHits++
			if r.cfg.WriteBack {
				r.lines[w][s].dirty = true
			}
		} else {
			r.stats.ReadHits++
		}
		r.lines[w][s].lastUse = r.clock
		return Result{Hit: true, Set: s, Way: w}
	}
	r.stats.Misses++
	if write {
		r.stats.WriteMiss++
	} else {
		r.stats.ReadMisses++
	}
	if write && !r.cfg.WriteAllocate {
		return Result{Hit: false}
	}
	res := r.fill(block)
	if write && r.cfg.WriteBack {
		r.lines[res.Way][res.Set].dirty = true
	}
	return res
}

// insertBlock is Cache.InsertBlock: a fill that records no demand
// access, or a touch that merges the dirty bit of a present block.
func (r *refCache) insertBlock(block uint64, dirty bool) Result {
	r.clock++
	if w, s, ok := r.lookup(block); ok {
		r.lines[w][s].lastUse = r.clock
		r.lines[w][s].dirty = r.lines[w][s].dirty || dirty
		return Result{Hit: true, Set: s, Way: w}
	}
	res := r.fill(block)
	r.lines[res.Way][res.Set].dirty = dirty
	return res
}

// probeDirty is the package tests' probeDirty.
func (r *refCache) probeDirty(block uint64) (dirty, ok bool) {
	w, s, ok := r.lookup(block)
	return ok && r.lines[w][s].dirty, ok
}

// extract is Cache.Extract.
func (r *refCache) extract(block uint64) (dirty, ok bool) {
	w, s, ok := r.lookup(block)
	if !ok {
		return false, false
	}
	dirty = r.lines[w][s].dirty
	r.lines[w][s] = line{}
	r.stats.Invalidates++
	return dirty, true
}

func (r *refCache) lookup(block uint64) (int, uint64, bool) {
	for w := 0; w < r.ways; w++ {
		s := r.place.SetIndex(block, w)
		ln := &r.lines[w][s]
		if ln.valid && ln.block == block {
			return w, s, true
		}
	}
	return 0, 0, false
}

func (r *refCache) fill(block uint64) Result {
	w := r.victimWay(block)
	s := r.place.SetIndex(block, w)
	victim := r.lines[w][s]
	res := Result{Set: s, Way: w, Filled: true}
	if victim.valid {
		res.Evicted = victim.block
		res.EvictedValid = true
		res.EvictedDirty = victim.dirty
		r.stats.Evictions++
		if victim.dirty {
			r.stats.Writebacks++
		}
	}
	r.lines[w][s] = line{block: block, valid: true, lastUse: r.clock, inserted: r.clock}
	r.stats.Fills++
	return res
}

func (r *refCache) victimWay(block uint64) int {
	for w := 0; w < r.ways; w++ {
		if !r.lines[w][r.place.SetIndex(block, w)].valid {
			return w
		}
	}
	switch r.cfg.Replacement {
	case FIFO:
		best, bestAge := 0, ^uint64(0)
		for w := 0; w < r.ways; w++ {
			if t := r.lines[w][r.place.SetIndex(block, w)].inserted; t < bestAge {
				best, bestAge = w, t
			}
		}
		return best
	case Random:
		return r.rnd.Intn(r.ways)
	default:
		best, bestAge := 0, ^uint64(0)
		for w := 0; w < r.ways; w++ {
			if t := r.lines[w][r.place.SetIndex(block, w)].lastUse; t < bestAge {
				best, bestAge = w, t
			}
		}
		return best
	}
}

// namedConfig labels a test configuration for subtest names.
type namedConfig struct {
	name string
	cfg  Config
}

// engineConfigs enumerates the 2-way cross product of every placement
// family, replacement policy and write mode.
func engineConfigs(t *testing.T) []namedConfig {
	t.Helper()
	return crossProduct(2, "")
}

// crossProduct enumerates every placement family over 64 sets × every
// replacement policy × the WT/NWA and WB/WA write modes at the given
// associativity, suffixing each family's name.
func crossProduct(ways int, suffix string) []namedConfig {
	var cfgs []namedConfig
	type placeMaker struct {
		name string
		mk   func(ways int) index.Placement
	}
	places := []placeMaker{
		{"modulo", func(int) index.Placement { return nil }},
		{"xor", func(int) index.Placement { return index.NewXORFold(6, false) }},
		{"xor-sk", func(int) index.Placement { return index.NewXORFold(6, true) }},
		{"shuffle-sk", func(int) index.Placement { return index.NewXORShuffle(6) }},
		{"ipoly", func(int) index.Placement { return index.NewIPolyDefault(1, 6, 14) }},
		{"ipoly-sk", func(ways int) index.Placement { return index.NewIPolyDefault(ways, 6, 14) }},
	}
	for _, pm := range places {
		for _, repl := range []ReplPolicy{LRU, FIFO, Random} {
			for _, wb := range []bool{false, true} {
				cfgs = append(cfgs, namedConfig{pm.name + suffix, Config{
					Size: 64 * 32 * ways, BlockSize: 32, Ways: ways,
					Placement: pm.mk(ways), Replacement: repl,
					WriteBack: wb, WriteAllocate: wb, // WT/NWA and WB/WA pairs
				}})
			}
		}
	}
	return cfgs
}

// refMatrix is the reference tests' matrix: the 2-way cross product,
// the same at 1 and 4 ways, and a 32-way fully-associative cache (one
// set, index.Single) under every policy and write mode.
func refMatrix() []namedConfig {
	cfgs := crossProduct(2, "")
	cfgs = append(cfgs, crossProduct(1, "-1w")...)
	cfgs = append(cfgs, crossProduct(4, "-4w")...)
	for _, repl := range []ReplPolicy{LRU, FIFO, Random} {
		for _, wb := range []bool{false, true} {
			cfgs = append(cfgs, namedConfig{"single-32w", Config{
				Size: 32 * 32, BlockSize: 32, Ways: 32, Placement: index.Single{},
				Replacement: repl, WriteBack: wb, WriteAllocate: wb,
			}})
		}
	}
	return cfgs
}

// The operations a differential stream applies to both engines.
const (
	opAccess  = iota // Access(addr, flag = write)
	opInsert         // InsertBlock(block, flag = dirty)
	opProbe          // Probe, Locate and the dirty bit of block
	opExtract        // Extract(block)
)

// checkOp applies one operation to the engine and the reference and
// fails on any difference in what they report.
func checkOp(t *testing.T, i int, c *Cache, r *refCache, kind int, addr uint64, flag bool) {
	t.Helper()
	block := addr >> uint(r.off)
	switch kind {
	case opAccess:
		if got, want := c.Access(addr, flag), r.access(addr, flag); got != want {
			t.Fatalf("op %d: Access(%#x, write %v): engine %+v, reference %+v", i, addr, flag, got, want)
		}
	case opInsert:
		if got, want := c.InsertBlock(block, flag), r.insertBlock(block, flag); got != want {
			t.Fatalf("op %d: InsertBlock(%#x, dirty %v): engine %+v, reference %+v", i, block, flag, got, want)
		}
	case opProbe:
		gw, gs, gok := c.Locate(block)
		ww, ws, wok := r.lookup(block)
		gd, _ := probeDirty(c, block)
		wd, _ := r.probeDirty(block)
		if gw != ww || gs != ws || gok != wok || c.Probe(block) != wok || gd != wd {
			t.Fatalf("op %d: probe of %#x: engine (way %d, set %d, %v, dirty %v), reference (way %d, set %d, %v, dirty %v)",
				i, block, gw, gs, gok, gd, ww, ws, wok, wd)
		}
	case opExtract:
		gd, gok := c.Extract(block)
		wd, wok := r.extract(block)
		if gd != wd || gok != wok {
			t.Fatalf("op %d: Extract(%#x): engine (dirty %v, %v), reference (dirty %v, %v)", i, block, gd, gok, wd, wok)
		}
	}
}

// TestEngineMatchesReference drives randomized load/store workloads,
// with inserts, probes and extracts mixed in, through the production
// engine and the reference engine and requires identical outcomes and
// statistics.
func TestEngineMatchesReference(t *testing.T) {
	for _, nc := range refMatrix() {
		cfg := nc.cfg
		name := nc.name + "/" + cfg.Replacement.String()
		if cfg.WriteBack {
			name += "/wb"
		} else {
			name += "/wt"
		}
		t.Run(name, func(t *testing.T) {
			c := New(cfg)
			r := newRef(cfg)
			// Footprint ~4x capacity so misses, evictions and conflicts
			// all occur; a skewed-friendly address mix with strided and
			// random components.
			wrk := rng.New(7)
			for i := 0; i < 30000; i++ {
				var addr uint64
				if wrk.Bool(0.5) {
					addr = uint64(wrk.Intn(4 * cfg.Size))
				} else {
					addr = uint64(i%512) * 1024 // strided aliasing walk
				}
				kind := opAccess
				if wrk.Bool(0.1) {
					kind = 1 + wrk.Intn(3) // an insert, a probe or an extract
				}
				checkOp(t, i, c, r, kind, addr, wrk.Bool(0.3))
			}
			if c.Stats() != r.stats {
				t.Errorf("stats diverged:\nengine    %+v\nreference %+v", c.Stats(), r.stats)
			}
		})
	}
}

// FuzzCacheVsReference drives a fuzzer-chosen entry of the reference
// matrix through a fuzzer-chosen stream of accesses, inserts, probes
// and extracts, comparing every outcome and the final statistics.  Each
// operation is three bytes: the first holds the kind (bits 0-1), the
// write or dirty flag (bit 2) and address bits 40-44 (bits 3-7), which
// alias blocks that every hashed index ignores; the other two are byte
// address bits 2-17, spanning 8192 blocks.
func FuzzCacheVsReference(f *testing.F) {
	m := refMatrix()
	seed := rng.New(5)
	for _, pick := range []uint16{0, 13, 40, 74, 89, 104, 108, 113} {
		ops := make([]byte, 3*200)
		for i := range ops {
			ops[i] = byte(seed.Intn(256))
		}
		f.Add(pick, ops)
	}
	f.Fuzz(func(t *testing.T, pick uint16, ops []byte) {
		cfg := m[int(pick)%len(m)].cfg
		c, r := New(cfg), newRef(cfg)
		for i := 0; i+3 <= len(ops); i += 3 {
			b := ops[i : i+3]
			addr := (uint64(b[1])|uint64(b[2])<<8)<<2 | uint64(b[0]>>3)<<40
			checkOp(t, i/3, c, r, int(b[0]&3), addr, b[0]&4 != 0)
		}
		if c.Stats() != r.stats {
			t.Fatalf("stats diverged:\nengine    %+v\nreference %+v", c.Stats(), r.stats)
		}
	})
}

// randomRecs builds a mixed workload of loads, stores and non-memory
// records (the latter must be skipped by the batch paths).
func randomRecs(n int) []trace.Rec {
	r := rng.New(11)
	recs := make([]trace.Rec, n)
	for i := range recs {
		switch {
		case r.Bool(0.2):
			recs[i] = trace.Rec{Op: trace.OpIntALU}
		case r.Bool(0.3):
			recs[i] = trace.Rec{Op: trace.OpStore, Addr: uint64(r.Intn(64 << 10))}
		default:
			recs[i] = trace.Rec{Op: trace.OpLoad, Addr: uint64(r.Intn(64 << 10))}
		}
	}
	return recs
}

// TestAccessStreamMatchesScalar checks that the batched replay paths are
// behaviourally identical to per-record scalar access.
func TestAccessStreamMatchesScalar(t *testing.T) {
	cfg := Config{Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: index.NewIPolyDefault(2, 7, 14), WriteAllocate: false}
	recs := randomRecs(20000)

	scalar := New(cfg)
	mem := 0
	for _, r := range recs {
		if r.Op.IsMem() {
			scalar.Access(r.Addr, r.Op == trace.OpStore)
			mem++
		}
	}
	batched := New(cfg)
	if n := batched.AccessStream(recs); n != uint64(mem) {
		t.Fatalf("AccessStream processed %d records, want %d", n, mem)
	}
	if scalar.Stats() != batched.Stats() {
		t.Errorf("AccessStream diverged:\nscalar  %+v\nbatched %+v", scalar.Stats(), batched.Stats())
	}

	streamed := New(cfg)
	if n := streamed.ReplaySource(trace.NewSliceSource(recs), 0); n != uint64(len(recs)) {
		t.Fatalf("ReplaySource consumed %d records, want %d", n, len(recs))
	}
	if scalar.Stats() != streamed.Stats() {
		t.Errorf("ReplaySource diverged:\nscalar   %+v\nstreamed %+v", scalar.Stats(), streamed.Stats())
	}
}
