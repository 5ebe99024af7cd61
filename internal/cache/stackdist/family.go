package stackdist

import (
	"math/bits"

	"repro/internal/index"
	"repro/internal/trace"
)

// Family bundles one Engine per set count for a single indexing scheme,
// fed from the same trace chunks: one decode of the trace yields whole
// miss-ratio curves — miss ratio as a function of total cache size — at
// every associativity up to maxWays.  Where a cache.Grid advances N
// explicit (size, ways) points per chunk, a Family advances one stack
// per set count and reads all the ways off each.
type Family struct {
	scheme  index.Scheme
	engines []*Engine
}

// NewFamily builds a family of engines for the scheme over the given
// ladder of set counts (each a power of two, ascending), sharing the
// block size and associativity range.  vbits is the number of
// block-address bits available to hash placements, as in index.New.
// Engines simulate write-through, no-write-allocate caches only, so
// writeBack and writeAlloc must be false.  Skewed schemes are rejected
// (panic): they have no stack property and belong on cache.Cache.
func NewFamily(scheme index.Scheme, setCounts []int, blockSize, maxWays, vbits int, writeBack, writeAlloc bool) *Family {
	if writeBack || writeAlloc {
		panic("stackdist: engines simulate write-through, no-write-allocate caches only")
	}
	f := &Family{scheme: scheme, engines: make([]*Engine, 0, len(setCounts))}
	for _, sets := range setCounts {
		if sets <= 0 || sets&(sets-1) != 0 {
			panic("stackdist: set counts must be positive powers of two")
		}
		place := index.MustNew(scheme, bits.TrailingZeros(uint(sets)), 1, vbits)
		f.engines = append(f.engines, New(Config{
			Sets:      sets,
			BlockSize: blockSize,
			MaxWays:   maxWays,
			Placement: place,
		}))
	}
	return f
}

// Engines returns the family's engines in set-count order.
func (f *Family) Engines() []*Engine { return f.engines }

// AccessStream feeds one trace chunk to every engine in the family and
// returns the number of memory accesses in the chunk.
func (f *Family) AccessStream(recs []trace.Rec) uint64 {
	var n uint64
	for _, e := range f.engines {
		n = e.AccessStream(recs)
	}
	return n
}

// Curves reads the family's results: one Curve per associativity in
// [1, maxWays], each spanning every set count, with point sizes
// sets*blockSize*ways ascending.
func (f *Family) Curves() []Curve {
	if len(f.engines) == 0 {
		return nil
	}
	maxWays := f.engines[0].MaxWays()
	blk := f.engines[0].Config().BlockSize
	out := make([]Curve, 0, maxWays)
	for w := 1; w <= maxWays; w++ {
		c := Curve{
			Scheme:      string(f.scheme),
			Ways:        w,
			BlockSize:   blk,
			SizesBytes:  make([]int64, len(f.engines)),
			ReadMissPct: make([]float64, len(f.engines)),
			MissPct:     make([]float64, len(f.engines)),
		}
		for i, e := range f.engines {
			st := e.StatsAt(w)
			c.SizesBytes[i] = int64(e.Sets()) * int64(blk) * int64(w)
			c.ReadMissPct[i] = 100 * st.ReadMissRatio()
			if st.Accesses > 0 {
				c.MissPct[i] = 100 * float64(st.Misses) / float64(st.Accesses)
			}
		}
		out = append(out, c)
	}
	return out
}
