package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSweepGridMatchesPerConfig is the driver-level differential pin
// of runGrid's engine choice: every point of the sweep's 24-point spec,
// of the organization comparison's flat caches (direct-mapped, 2-way
// and the 256-way fully-associative cache among them), of the ablation's
// caches (FIFO and random replacement among them) and of a spec of
// caches the Grid cannot simulate must equal, counter for counter, an
// independent per-configuration trace pass through the single-cache
// engine on a real benchmark trace, whether runGrid reads the point off
// a stack-distance engine, the Grid or a cache of its own.
func TestSweepGridMatchesPerConfig(t *testing.T) {
	orgs, _ := orgSpec()
	ablate, _ := ablateSpec()
	ipoly := func(setBits int) index.Placement { return index.MustNew(index.SchemeIPolySk, setBits, 2, hashInBits) }
	offGrid := cache.GridSpec{
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: ipoly(7)}, // sets the Grid's block size
		{Size: 8 << 10, BlockSize: 64, Ways: 2, Placement: ipoly(6)}, // another block size
		{Size: 256, BlockSize: 1, Ways: 2, Placement: ipoly(7)},      // a 1-byte block
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: ipoly(7), WriteBack: true, WriteAllocate: true},
		{Size: 8 << 10, BlockSize: 32, Ways: 4, WriteBack: true},
		{Size: 8 << 10, BlockSize: 32, Ways: 2, Replacement: cache.FIFO},
		{Size: 256, BlockSize: 1, Ways: 2}, // conventional: read off stackdist
	}
	prof := workload.Suite()[0]
	ctx := context.Background()
	const instr, seed = 20_000, 7

	testShards = 3
	t.Cleanup(func() { testShards = 0 })
	for _, tc := range []struct {
		name string
		spec cache.GridSpec
	}{
		{"sweep", SweepGridSpec()},
		{"orgs", orgs},
		{"ablate", ablate},
		{"off-grid", offGrid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := runGrid(ctx, prof, seed, instr, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for k, cfg := range tc.spec {
				c := cache.New(cfg)
				err := memTraces.ReplayMem(ctx, prof, seed, instr, func(recs []trace.Rec) {
					c.AccessStream(recs)
				})
				if err != nil {
					t.Fatal(err)
				}
				if st[k] != c.Stats() {
					t.Errorf("point %d (%dB %d-way %v): runGrid diverged from per-config pass\nrunGrid %+v\ncache   %+v",
						k, cfg.Size, cfg.Ways, cfg.Placement, st[k], c.Stats())
				}
			}
		})
	}
}

func TestSweepShape(t *testing.T) {
	cfg := smallBase()
	res := runOK(t, RunSweepCtx, cfg)
	if len(res.Miss) != len(res.SizesKB) {
		t.Fatal("grid incomplete")
	}
	// Monotonicity: for a fixed ways/scheme, bigger caches never have a
	// (much) higher miss ratio.
	for wi := range res.Ways {
		for ki := range res.Schemes {
			for si := 1; si < len(res.SizesKB); si++ {
				prev := res.Miss[si-1][wi][ki]
				cur := res.Miss[si][wi][ki]
				if cur > prev+1.0 {
					t.Errorf("size %dKB->%dKB ways %d scheme %s: miss rose %.2f -> %.2f",
						res.SizesKB[si-1], res.SizesKB[si], res.Ways[wi], res.Schemes[ki], prev, cur)
				}
			}
		}
	}
	// I-Poly never loses badly to conventional at the same point, and
	// wins clearly at 8KB 2-way (the paper's configuration).
	for si := range res.SizesKB {
		for wi := range res.Ways {
			conv := res.Miss[si][wi][0]
			ip := res.Miss[si][wi][1]
			if ip > conv+2.0 {
				t.Errorf("%dKB %d-way: I-Poly %.2f much worse than conventional %.2f",
					res.SizesKB[si], res.Ways[wi], ip, conv)
			}
		}
	}
	conv8, _ := res.At(8, 2, index.SchemeModulo)
	ip8, _ := res.At(8, 2, index.SchemeIPolySk)
	if ip8 >= conv8 {
		t.Errorf("8KB 2-way: I-Poly %.2f did not beat conventional %.2f", ip8, conv8)
	}
	if _, ok := res.At(3, 2, index.SchemeModulo); ok {
		t.Error("At should reject unknown points")
	}
	if !strings.Contains(res.report(cfg).RenderString(), "Design-space sweep") {
		t.Error("render incomplete")
	}
}

func TestInterleaveLineage(t *testing.T) {
	cfg := InterleaveConfig{Base: smallBase(), MaxStride: 256}
	res := runOK(t, RunInterleaveCtx, cfg)
	get := func(name string) int {
		for i, s := range res.Schemes {
			if s == name {
				return i
			}
		}
		t.Fatalf("scheme %q missing", name)
		return -1
	}
	mod := get("modulo-16")
	ip := get("ipoly-16")
	pr := get("prime-17")
	// Conventional interleaving degrades on many power-of-two strides;
	// the polynomial selector on (almost) none.
	if res.Degraded[mod] == 0 {
		t.Error("modulo interleave should degrade on power-of-two strides")
	}
	if res.Degraded[ip] > res.Degraded[mod]/4 {
		t.Errorf("ipoly degraded on %d strides vs modulo %d", res.Degraded[ip], res.Degraded[mod])
	}
	if res.MeanBW[ip] <= res.MeanBW[mod] {
		t.Errorf("ipoly mean BW %.3f not above modulo %.3f", res.MeanBW[ip], res.MeanBW[mod])
	}
	// Prime-17 should also be robust within this sweep (its pathology is
	// stride multiples of 17, a small fraction).
	if res.Degraded[pr] > res.Strides/10 {
		t.Errorf("prime degraded on %d strides", res.Degraded[pr])
	}
	if !strings.Contains(res.report(cfg).RenderString(), "Cydra") {
		t.Error("render incomplete")
	}
}
