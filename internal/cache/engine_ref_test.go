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
// agree on every access outcome (hit/miss, way, set, eviction and its
// dirty bit) and on all statistics, over randomized workloads covering
// every placement family, replacement policy and write mode.
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
		rnd:   rng.New(cfg.Seed ^ 0xCAFE),
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

// engineConfigs enumerates the cross-product the property test covers.
func engineConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
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
				cfgs = append(cfgs, Config{
					Name: pm.name, Size: 64 * 32 * 2, BlockSize: 32, Ways: 2,
					Placement: pm.mk(2), Replacement: repl,
					WriteBack: wb, WriteAllocate: wb, // WT/NWA and WB/WA pairs
					Seed: 42,
				})
			}
		}
	}
	return cfgs
}

func sameResult(a, b Result) bool { return a == b }

// TestEngineMatchesReference drives randomized load/store workloads
// through the production engine and the reference engine and requires
// identical hit/miss/eviction sequences and statistics.
func TestEngineMatchesReference(t *testing.T) {
	for _, cfg := range engineConfigs(t) {
		name := cfg.Name + "/" + cfg.Replacement.String()
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
				write := wrk.Bool(0.3)
				got := c.Access(addr, write)
				want := r.access(addr, write)
				if !sameResult(got, want) {
					t.Fatalf("access %d (addr %#x write %v): engine %+v, reference %+v",
						i, addr, write, got, want)
				}
			}
			if c.Stats() != r.stats {
				t.Errorf("stats diverged:\nengine    %+v\nreference %+v", c.Stats(), r.stats)
			}
		})
	}
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
