package cache

import (
	"testing"

	"repro/internal/trace"
)

// FuzzShardedGrid cross-checks the sharded grid against a sequential
// Grid under fuzzer-chosen config subsets, shard counts, chunk sizes
// and record streams: whatever the partition, per-point statistics
// must be bit-identical after every chunk.
func FuzzShardedGrid(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0xff, 0x07, 0x80}, uint16(0xfff), uint8(2), uint16(3))
	f.Add([]byte{0x10, 0x20, 0x30, 0x44, 0x55, 0x66}, uint16(0x50b), uint8(3), uint16(1))
	f.Add([]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x01}, uint16(0xa88), uint8(8), uint16(512))
	f.Fuzz(func(t *testing.T, data []byte, pick uint16, shards uint8, chunk uint16) {
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
		seq := NewGrid(GridSpec(cfgs))
		sg := NewShardedGrid(GridSpec(cfgs), int(shards%12))
		step := int(chunk%4096) + 1
		for lo := 0; lo < len(recs); lo += step {
			hi := lo + step
			if hi > len(recs) {
				hi = len(recs)
			}
			sn := seq.AccessStream(recs[lo:hi])
			gn := sg.AccessStream(recs[lo:hi])
			if sn != gn {
				t.Fatalf("chunk [%d:%d): sequential processed %d records, sharded %d", lo, hi, sn, gn)
			}
			for k := range cfgs {
				if seq.StatsAt(k) != sg.StatsAt(k) {
					t.Fatalf("chunk [%d:%d) point %d (%s, shards=%d): stats diverged\nseq   %+v\nshard %+v",
						lo, hi, k, pointLabel(cfgs[k]), sg.Shards(), seq.StatsAt(k), sg.StatsAt(k))
				}
			}
		}
	})
}
