package cache

import (
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/trace"
)

// naiveShadow is the 3C rule for one cache, written apart from the
// Classifier's shared shadow: a fully-associative LRU shadow held as a
// slice, most recent block first, and the set of every block ever
// loaded.
type naiveShadow struct {
	capacity int
	lru      []uint64
	seen     map[uint64]bool
	brk      MissBreakdown
}

// load classifies a load of block that the cache under test missed or
// hit, then touches block in the shadow.
func (n *naiveShadow) load(block uint64, missed bool) {
	i := slices.Index(n.lru, block)
	switch {
	case !missed:
	case !n.seen[block]:
		n.brk.Compulsory++
	case i < 0:
		n.brk.Capacity++
	default:
		n.brk.Conflict++
	}
	n.seen[block] = true
	if i >= 0 {
		n.lru = slices.Delete(n.lru, i, i+1)
	} else if len(n.lru) == n.capacity {
		n.lru = n.lru[:n.capacity-1]
	}
	n.lru = slices.Insert(n.lru, 0, block)
}

// classifierMenu lists the caches FuzzClassifierVsNaive picks from:
// modulo, XOR-skewed, I-Poly-skewed and 4-way I-Poly placements, one
// write-back, write-allocate cache among them, all 1 KB with 32-byte
// lines, so any pick shares one 32-block shadow.
func classifierMenu() []Config {
	return []Config{
		{Size: 1 << 10, BlockSize: 32, Ways: 1},
		{Size: 1 << 10, BlockSize: 32, Ways: 2},
		{Size: 1 << 10, BlockSize: 32, Ways: 2, Placement: index.NewXORFold(4, true)},
		{Size: 1 << 10, BlockSize: 32, Ways: 2, Placement: index.NewIPolyDefault(2, 4, 14)},
		{Size: 1 << 10, BlockSize: 32, Ways: 4, Placement: index.NewIPolyDefault(1, 3, 14)},
		{Size: 1 << 10, BlockSize: 32, Ways: 2, WriteBack: true, WriteAllocate: true,
			Placement: index.NewIPolyDefault(2, 4, 14)},
	}
}

// classifierSeed encodes a stream for FuzzClassifierVsNaive: rounds
// passes over blocks, each block loaded and, when store is set,
// followed by a store to block+256, which no load touches, and a
// non-memory record.
func classifierSeed(rounds int, store bool, blocks ...byte) []byte {
	var data []byte
	for range rounds {
		for _, b := range blocks {
			data = append(data, b, 2)
			if store {
				data = append(data, b, 1<<2|1, b, 0)
			}
		}
	}
	return data
}

// FuzzClassifierVsNaive checks the Classifier's one shadow against a
// naive shadow per cache.  pick chooses one to three caches from
// classifierMenu (pick%3+1 caches, three bits per menu index from bit
// 2 up), and data becomes a stream of two bytes per record: a 14-bit
// block address from byte 0 and byte 1's top six bits, and the op from
// byte 1's low two (0 non-memory, 1 store, else load).  The stream is
// classified in chunks of chunk+1 records, and after every chunk each
// cache's statistics must equal those of an independent cache fed the
// same records, and its breakdown the naive rule's.
func FuzzClassifierVsNaive(f *testing.F) {
	// Blocks 0, 16 and 32 crowd one set of each modulo cache: conflicts.
	f.Add(classifierSeed(10, false, 0, 16, 32), uint16(2|0<<2|1<<5|3<<8), uint8(7))
	// A 40-block cycle through the 32-block shadow: capacity misses.
	f.Add(classifierSeed(3, true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
		20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39), uint16(1|2<<2|4<<5), uint8(63))
	// Colliding loads and stores to blocks no load touches, through the
	// write-back, write-allocate cache among others.
	f.Add(classifierSeed(4, true, 3, 35, 67, 99, 3, 131, 163), uint16(2|5<<2|3<<5|1<<8), uint8(0))
	f.Add([]byte{0x00, 0x10, 0x42, 0xff, 0x07, 0x80, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66}, uint16(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, pick uint16, chunk uint8) {
		menu := classifierMenu()
		picks := make([]int, int(pick%3)+1)
		caches := make([]*Cache, len(picks))
		refs := make([]*Cache, len(picks))
		naive := make([]*naiveShadow, len(picks))
		for k := range picks {
			picks[k] = int(pick>>(2+3*k)&7) % len(menu)
			cfg := menu[picks[k]]
			caches[k], refs[k] = New(cfg), New(cfg)
			naive[k] = &naiveShadow{capacity: cfg.Size / cfg.BlockSize, seen: map[uint64]bool{}}
		}
		cl := NewClassifier(caches...)
		var recs []trace.Rec
		for i := 0; i+1 < len(data); i += 2 {
			addr := (uint64(data[i]) | uint64(data[i+1]>>2)<<8) << 5
			switch data[i+1] & 3 {
			case 0:
				recs = append(recs, trace.Rec{Op: trace.OpIntALU, Addr: addr})
			case 1:
				recs = append(recs, trace.Rec{Op: trace.OpStore, Addr: addr})
			default:
				recs = append(recs, trace.Rec{Op: trace.OpLoad, Addr: addr})
			}
		}
		step := int(chunk) + 1
		for lo := 0; lo < len(recs); lo += step {
			hi := min(lo+step, len(recs))
			cl.ClassifyStream(recs[lo:hi])
			for _, r := range recs[lo:hi] {
				if r.Op != trace.OpLoad && r.Op != trace.OpStore {
					continue
				}
				for k, ref := range refs {
					hit := ref.Access(r.Addr, r.Op == trace.OpStore).Hit
					if r.Op == trace.OpLoad {
						naive[k].load(ref.Block(r.Addr), !hit)
					}
				}
			}
			for k, m := range picks {
				if got, want := caches[k].Stats(), refs[k].Stats(); got != want {
					t.Fatalf("cache %d (menu %d) after %d records: stats\n got  %+v\n want %+v", k, m, hi, got, want)
				}
				if got, want := cl.Breakdown(k), naive[k].brk; got != want {
					t.Fatalf("cache %d (menu %d) after %d records: breakdown %+v, naive %+v", k, m, hi, got, want)
				}
			}
		}
	})
}
