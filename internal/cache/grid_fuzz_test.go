package cache

import (
	"testing"

	"repro/internal/index"
	"repro/internal/trace"
)

// fuzzGridMenu is the configuration menu FuzzGridAccess and
// FuzzShardedGrid pick subsets from: every placement family, from
// direct-mapped to fully associative, every replacement policy, both
// write modes, and 32- and 64-byte lines.
func fuzzGridMenu() []Config {
	return []Config{
		{Size: 2 << 10, BlockSize: 32, Ways: 1},
		{Size: 4 << 10, BlockSize: 32, Ways: 2},
		{Size: 4 << 10, BlockSize: 32, Ways: 2,
			Placement: index.NewXORFold(6, true)},
		{Size: 4 << 10, BlockSize: 32, Ways: 2,
			Placement: index.NewIPolyDefault(2, 6, 14)},
		{Size: 4 << 10, BlockSize: 32, Ways: 2,
			Placement: index.NewXORShuffle(6)},
		{Size: 4 << 10, BlockSize: 32, Ways: 4,
			Placement: index.NewIPolyDefault(1, 5, 14)},
		{Size: 1 << 10, BlockSize: 32, Ways: 32, Placement: index.Single{}},
		{Size: 4 << 10, BlockSize: 32, Ways: 2,
			Placement: index.NewXORFold(6, false)},
		{Size: 4 << 10, BlockSize: 32, Ways: 4, Replacement: FIFO,
			Placement: index.NewIPolyDefault(4, 5, 14)},
		{Size: 4 << 10, BlockSize: 32, Ways: 4, Replacement: Random,
			Placement: index.NewIPolyDefault(4, 5, 14)},
		{Size: 4 << 10, BlockSize: 32, Ways: 2, WriteBack: true, WriteAllocate: true,
			Placement: index.NewIPolyDefault(2, 6, 14)},
		{Size: 8 << 10, BlockSize: 64, Ways: 2,
			Placement: index.NewIPolyDefault(2, 6, 14)},
	}
}

// FuzzGridAccess cross-checks the grid engine against the reference
// single-cache engine on fuzzer-chosen record streams and configuration
// subsets: pick selects a non-empty subset of the menu (bit i keeps
// config i), chunk the replay chunk size, and data decodes to a
// load/store/other record stream.  Grid and caches must agree on every
// statistic of every selected configuration.
func FuzzGridAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0xff, 0x07, 0x80}, uint16(0xfff), uint16(3))
	f.Add([]byte{0x10, 0x20, 0x30}, uint16(0x001), uint16(1))
	f.Add([]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee}, uint16(0xa88), uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, pick, chunk uint16) {
		menu := fuzzGridMenu()
		var cfgs []Config
		for i, cfg := range menu {
			if pick>>uint(i)&1 == 1 {
				cfgs = append(cfgs, cfg)
			}
		}
		if len(cfgs) == 0 {
			return
		}
		// Decode 3 bytes per record: 2 op/steering bits + a 22-bit address.
		var recs []trace.Rec
		for i := 0; i+2 < len(data); i += 3 {
			addr := uint64(data[i])<<14 | uint64(data[i+1])<<6 | uint64(data[i+2])>>2
			switch data[i+2] & 3 {
			case 0:
				recs = append(recs, trace.Rec{Op: trace.OpIntALU, Addr: addr})
			case 1:
				recs = append(recs, trace.Rec{Op: trace.OpStore, Addr: addr})
			default:
				recs = append(recs, trace.Rec{Op: trace.OpLoad, Addr: addr})
			}
		}
		g := NewGrid(GridSpec(cfgs))
		refs := make([]*Cache, len(cfgs))
		for i, cfg := range cfgs {
			refs[i] = New(cfg)
		}
		step := int(chunk%4096) + 1
		for lo := 0; lo < len(recs); lo += step {
			hi := lo + step
			if hi > len(recs) {
				hi = len(recs)
			}
			g.AccessStream(recs[lo:hi])
			for _, ref := range refs {
				ref.AccessStream(recs[lo:hi])
			}
		}
		for k, ref := range refs {
			if g.StatsAt(k) != ref.Stats() {
				t.Fatalf("config %d (%s): grid diverged from cache\ngrid  %+v\ncache %+v",
					k, pointLabel(cfgs[k]), g.StatsAt(k), ref.Stats())
			}
		}
	})
}
