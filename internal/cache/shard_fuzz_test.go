package cache

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// FuzzShardedGrid cross-checks the sharded grid against a sequential
// Grid under fuzzer-chosen config subsets, shard counts, chunk sizes
// and record streams.  The chunks reach the Subs as the benchmark's
// sharded Grid row delivers them: published once on a trace.Broadcast,
// each Sub replaying them on its own goroutine.  Whatever the
// partition, every Sub must replay every record and every point's
// statistics must be bit-identical to the sequential Grid's.
func FuzzShardedGrid(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0xff, 0x07, 0x80}, uint16(0xfff), uint8(2), uint16(3))
	f.Add([]byte{0x10, 0x20, 0x30, 0x44, 0x55, 0x66}, uint16(0x50b), uint8(3), uint16(1))
	f.Add([]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x01}, uint16(0xa88), uint8(8), uint16(512))
	// Twelve records in four chunks over three shards: a Sub that missed
	// any chunk would diverge.
	f.Add([]byte{
		0x00, 0x10, 0x02, 0x01, 0x20, 0x05, 0x02, 0x30, 0x0b, 0x03, 0x40, 0x0e,
		0x00, 0x10, 0x12, 0x05, 0x60, 0x16, 0x06, 0x70, 0x19, 0x01, 0x20, 0x1e,
		0x08, 0x90, 0x22, 0x09, 0xa0, 0x27, 0x00, 0x10, 0x2a, 0x0b, 0xc0, 0x2c,
	}, uint16(0xfff), uint8(3), uint16(2))
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
		b := trace.NewBroadcast(sg.Shards(), 2, step)
		got := make([]uint64, sg.Shards())
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int, g *Grid) {
				defer wg.Done()
				b.Receive(i, func(recs []trace.Rec) { got[i] += g.AccessStream(recs) })
			}(i, sg.Sub(i))
		}
		var want uint64
		for lo := 0; lo < len(recs); lo += step {
			hi := min(lo+step, len(recs))
			want += seq.AccessStream(recs[lo:hi])
			b.Publish(append(b.Slot(), recs[lo:hi]...))
		}
		b.CloseSend(nil)
		wg.Wait()
		for i, n := range got {
			if n != want {
				t.Fatalf("sub %d of %d replayed %d records, the sequential grid %d", i, sg.Shards(), n, want)
			}
		}
		for k := range cfgs {
			if seq.StatsAt(k) != sg.StatsAt(k) {
				t.Fatalf("point %d (%s, shards=%d): stats diverged\nseq   %+v\nshard %+v",
					k, pointLabel(cfgs[k]), sg.Shards(), seq.StatsAt(k), sg.StatsAt(k))
			}
		}
	})
}
