package index

import "math/bits"

// Compiled is a placement compiled for simulation: per-way byte lookup
// tables built once from the placement's own SetIndex.  Every placement
// in this package is linear over GF(2) — each index bit is the XOR of a
// fixed set of block-address bits — so the index of a block is the XOR
// of the images of its bytes:
//
//	SetIndex(a, w) == T[w][0][a&0xff] ^ T[w][1][a>>8&0xff] ^ ...
//
// Element w computes way w's index.  The two simulation engines,
// cache.Cache (whose instances are cache.Grid's points) and
// stackdist.Engine, both index through a Compiled; hardware would instead synthesise the XOR trees that
// gf2.BitMatrix.GateDescription reports.
type Compiled []Way

// Way is one way's compiled index function.  Tables cover the address
// bits up to the highest one that reaches the index; higher bits are
// masked off, as the definition ignores them.  There are at least three
// tables (zero-filled past the input width), so the common input widths
// of up to 24 bits cost three independent loads and no loop.  A Way is
// small enough for an engine's inner loop to hold in registers.
type Way struct {
	tabs []uint32 // table t at tabs[t<<8 : t<<8+256]
	mask uint64   // the input bits
}

// minTables is the table count every Way carries, so Index's fast path
// is a fixed three-load expression.
const minTables = 3

// Compile builds the lookup tables of p for ways ways.  p must be
// linear over GF(2) (SetIndex(a^b, w) == SetIndex(a, w)^SetIndex(b, w)),
// as every Placement in this package is: the tables are assembled from
// the images of the single-bit addresses.  The ways of a non-skewed
// placement share one set of tables.
func Compile(p Placement, ways int) Compiled {
	c := make(Compiled, ways)
	for w := range c {
		if w > 0 && !p.Skewed() {
			c[w] = c[0]
			continue
		}
		c[w] = compileWay(p, w)
	}
	return c
}

// compileWay builds way w's tables from the images of the single-bit
// addresses.
func compileWay(p Placement, w int) Way {
	var imgs [64]uint32
	width := 0
	for j := range imgs {
		if s := p.SetIndex(1<<uint(j), w); s != 0 {
			imgs[j] = uint32(s)
			width = j + 1
		}
	}
	way := Way{
		tabs: make([]uint32, max((width+7)/8, minTables)<<8),
		mask: ^uint64(0) >> uint(64-width), // 0 when width is 0
	}
	for t := 0; 8*t < width; t++ {
		tab := way.tabs[t<<8 : t<<8+256]
		for v := 1; v < 256; v++ {
			// v's image is its lowest bit's image XOR the rest's.
			tab[v] = tab[v&(v-1)] ^ imgs[8*t+bits.TrailingZeros(uint(v))]
		}
	}
	return way
}

// Index returns the set index of block: the source placement's
// SetIndex(block, w) for the way w this function was compiled for.
func (w Way) Index(block uint64) uint64 {
	a := block & w.mask
	t := (*[minTables << 8]uint32)(w.tabs)
	s := t[a&0xff] ^ t[256|a>>8&0xff] ^ t[512|a>>16&0xff]
	for i := minTables << 8; i < len(w.tabs); i += 256 {
		// Table i>>8 maps address byte i>>8, bits i>>5 upward.
		s ^= w.tabs[i|int(a>>uint(i>>5)&0xff)]
	}
	return uint64(s)
}
