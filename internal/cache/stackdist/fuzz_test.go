package stackdist

import (
	"testing"

	"repro/internal/index"
)

// naiveLRU is an independent reference: one explicitly-simulated LRU,
// write-through, no-write-allocate cache written with linear scans and
// no shared code with Engine or cache.Cache.  Lines live in
// lines/last keyed set*ways+way.
type naiveLRU struct {
	sets, ways int
	place      index.Placement

	valid []bool
	lines []uint64
	last  []uint64
	clock uint64

	loads, stores, readHits, writeHits uint64
	evictions, fills                   uint64
}

func newNaive(sets, ways int, place index.Placement) *naiveLRU {
	n := sets * ways
	return &naiveLRU{
		sets: sets, ways: ways, place: place,
		valid: make([]bool, n), lines: make([]uint64, n), last: make([]uint64, n),
	}
}

func (c *naiveLRU) access(blk uint64, write bool) {
	c.clock++
	if write {
		c.stores++
	} else {
		c.loads++
	}
	base := int(c.place.SetIndex(blk, 0)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.lines[i] == blk {
			c.last[i] = c.clock
			if write {
				c.writeHits++
			} else {
				c.readHits++
			}
			return
		}
	}
	if write {
		return
	}
	victim, free := -1, -1
	for i := base; i < base+c.ways; i++ {
		if !c.valid[i] {
			free = i
			break
		}
		if victim < 0 || c.last[i] < c.last[victim] {
			victim = i
		}
	}
	slot := free
	if slot < 0 {
		slot = victim
		c.evictions++
	}
	c.fills++
	c.valid[slot], c.lines[slot], c.last[slot] = true, blk, c.clock
}

// FuzzEngineVsNaive cross-checks the stack-distance engine against the
// naive reference on fuzzer-chosen block streams: geom steers the set
// count, associativity range and placement; data decodes to 1 byte per
// access (low bit = store, rest = block address), keeping working sets
// small enough that every stack depth is exercised.
func FuzzEngineVsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 1, 0, 255, 7}, uint8(0))
	f.Add([]byte{10, 11, 10, 12, 10, 13, 10, 14}, uint8(0x1f))
	f.Add([]byte{0x80, 0x40, 0x20, 0x10, 0x08, 0x04}, uint8(0xea))
	f.Fuzz(func(t *testing.T, data []byte, geom uint8) {
		setBits := int(geom & 3) // 1..8 sets
		sets := 1 << setBits
		maxWays := int(geom>>2&3) + 1 // 1..4
		var place index.Placement
		switch geom >> 6 & 3 {
		case 0:
			place = index.NewModulo(setBits)
		case 1:
			place = index.NewXORFold(setBits, false)
		case 2:
			if setBits > 0 {
				place = index.MustNew(index.SchemeIPoly, setBits, 1, 14)
			} else {
				place = index.Single{}
			}
		default:
			if sets != 1 {
				place = index.NewModulo(setBits)
			} else {
				place = index.Single{}
			}
		}
		e := New(Config{Sets: sets, BlockSize: 32, MaxWays: maxWays, Placement: place})
		refs := make([]*naiveLRU, maxWays)
		for w := 1; w <= maxWays; w++ {
			refs[w-1] = newNaive(sets, w, place)
		}
		for _, b := range data {
			blk := uint64(b >> 1)
			write := b&1 == 1
			e.AccessBlock(blk, write)
			for _, r := range refs {
				r.access(blk, write)
			}
		}
		for w := 1; w <= maxWays; w++ {
			st, r := e.StatsAt(w), refs[w-1]
			ok := st.ReadHits == r.readHits && st.WriteHits == r.writeHits &&
				st.ReadMisses == r.loads-r.readHits && st.WriteMiss == r.stores-r.writeHits &&
				st.Evictions == r.evictions && st.Writebacks == 0 && st.Fills == r.fills
			if !ok {
				t.Fatalf("sets=%d ways=%d %s: engine %+v vs naive {rh %d wh %d ev %d fill %d}",
					sets, w, place.Name(), st, r.readHits, r.writeHits, r.evictions, r.fills)
			}
		}
	})
}
