package experiments

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// replayThroughMenu lists the points FuzzReplayThrough picks from:
// conventional points routeSpec reads off stack-distance engines (two
// share one), and caches it builds for skewed, FIFO, random,
// write-back and single-set points.
func replayThroughMenu() cache.GridSpec {
	ipoly := func(setBits int) index.Placement { return index.MustNew(index.SchemeIPolySk, setBits, 2, hashInBits) }
	return cache.GridSpec{
		{Size: 8 << 10, BlockSize: 32, Ways: 2},
		{Size: 8 << 10, BlockSize: 32, Ways: 4},
		{Size: 4 << 10, BlockSize: 32, Ways: 1},
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: ipoly(7)},
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: index.NewXORFold(7, true)},
		{Size: 8 << 10, BlockSize: 32, Ways: 4, Replacement: cache.FIFO},
		{Size: 2 << 10, BlockSize: 32, Ways: 2, Replacement: cache.Random},
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: ipoly(7), WriteBack: true, WriteAllocate: true},
		{Size: 1 << 10, BlockSize: 32, Ways: 32, Placement: index.Single{}},
		{Size: 8 << 10, BlockSize: 64, Ways: 2, Placement: ipoly(6)},
	}
}

// FuzzReplayThrough checks the partition drivers run: replayThrough
// splits routeSpec's consumers for the menu points pick selects into
// testShards groups, 1 to 8 here, fed by one producer over a
// trace.Broadcast.  weights overrides the consumers' balancing weights
// in list order, so groups may be lopsided or empty.  Over a private
// trace store of four chunks, every point's statistics must equal a
// one-group pass's.
func FuzzReplayThrough(f *testing.F) {
	f.Add([]byte{1, 1, 2}, uint8(2), uint16(0x3ff))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(7), uint16(0x155))
	f.Add([]byte{9, 1}, uint8(5), uint16(0x2f8))
	f.Add([]byte{}, uint8(3), uint16(0x007))
	saved := memTraces
	memTraces = tracestore.New(tracestore.DefaultMaxBytes)
	f.Cleanup(func() { memTraces, testShards = saved, 0 })
	prof := workload.Suite()[0]
	ctx := context.Background()
	const seed, n = 7, 4 * tracestore.ChunkLen
	f.Fuzz(func(t *testing.T, weights []byte, shards uint8, pick uint16) {
		var spec cache.GridSpec
		for i, cfg := range replayThroughMenu() {
			if pick>>i&1 == 1 {
				spec = append(spec, cfg)
			}
		}
		pass := func(s int) []cache.Stats {
			testShards = s
			consumers, stats := routeSpec(spec)
			for i := range min(len(consumers), len(weights)) {
				consumers[i].weight = int(weights[i])
			}
			if err := replayThrough(ctx, prof, seed, n, consumers); err != nil {
				t.Fatal(err)
			}
			st := make([]cache.Stats, len(stats))
			for k, read := range stats {
				st[k] = read()
			}
			return st
		}
		want := pass(1)
		s := int(shards%8) + 1
		got := pass(s)
		for k := range spec {
			if got[k] != want[k] {
				t.Fatalf("point %d (%dB %d-way %T) at %d shards: stats diverged from one group\nsharded %+v\none     %+v",
					k, spec[k].Size, spec[k].Ways, spec[k].Placement, s, got[k], want[k])
			}
		}
	})
}
