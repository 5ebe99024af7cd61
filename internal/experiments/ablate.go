package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AblateConfig configures the design-choice ablations.
type AblateConfig struct {
	exp.Base
}

// DefaultAblateConfig returns the standard scale.
func DefaultAblateConfig() AblateConfig { return AblateConfig{Base: exp.DefaultBase()} }

func (c AblateConfig) normalize() AblateConfig {
	c.Base.Normalize()
	return c
}

// AblateResult collects the design-choice ablations listed in DESIGN.md.
type AblateResult struct {
	// Polynomial choice: average bad-program miss ratio (%) using an
	// irreducible vs a reducible modulus ("for best performance P(x)
	// will be an irreducible polynomial, though it need not be so").
	IrreducibleMiss, ReducibleMiss float64
	// Skewing: skewed (per-way P) vs unskewed I-Poly on the bad programs.
	SkewedMiss, UnskewedMiss float64
	// VBitsMiss[v] is the bad-program miss ratio when only v block-address
	// bits feed the hash (v must exceed the 7 index bits).
	VBits     []int
	VBitsMiss []float64
	// Replacement policy under skewed I-Poly on the bad programs.
	ReplNames []string
	ReplMiss  []float64
	// MSHR count vs IPC on swim (lockup-free behaviour).
	MSHRCounts []int
	MSHRIPC    []float64
	// Finite-L2 indexing (extension): bad-program IPC with a 64 KB L2
	// indexed conventionally vs polynomially.
	L2Schemes []string
	L2IPC     []float64
	// Address predictor size vs IPC on tomcatv with the XOR in the
	// critical path.
	APredSizes []int
	APredIPC   []float64
}

// badMiss runs the three bad programs' memory traces through a cache
// built by mk and returns the mean load miss ratio (%).
func badMiss(ctx context.Context, cfg AblateConfig, mk func() *cache.Cache) (float64, error) {
	var ratios []float64
	for _, name := range workload.BadPrograms() {
		prof, _ := workload.ByName(name)
		c := mk()
		err := forEachMemChunk(ctx, prof, cfg.Seed, cfg.Instructions, func(recs []trace.Rec) {
			c.AccessStream(recs)
		})
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, 100*c.Stats().ReadMissRatio())
	}
	return stats.Mean(ratios), nil
}

func cache8K(p index.Placement, repl cache.ReplPolicy) *cache.Cache {
	return cache.New(cache.Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: p, Replacement: repl, WriteAllocate: false,
	})
}

// reduciblePolys returns degree-7 NON-irreducible polynomials with a
// nonzero constant term (so the map still uses all inputs).
func reduciblePolys(n int) []gf2.Poly {
	var out []gf2.Poly
	for f := gf2.Poly(1 << 7); f < 1<<8 && len(out) < n; f++ {
		if f.Coeff(0) == 1 && !gf2.Irreducible(f) {
			out = append(out, f)
		}
	}
	return out
}

// RunAblateCtx runs every ablation on the parallel engine.  Every
// variant reduces to a single float64 (a bad-program mean miss ratio or
// an IPC), so the whole study flattens into one job list decoded
// positionally by the reducer.
func RunAblateCtx(ctx context.Context, cfg AblateConfig) (AblateResult, error) {
	cfg = cfg.normalize()
	if err := rejectTraceFile("ablate", cfg.Base); err != nil {
		return AblateResult{}, err
	}
	var res AblateResult

	var jobs []runner.Job[float64]
	add := func(key string, fn func(context.Context) (float64, error)) {
		jobs = append(jobs, runner.KeyedJob("ablate/"+key, fn))
	}
	addBadMiss := func(key string, mk func() *cache.Cache) {
		add(key, func(c context.Context) (float64, error) { return badMiss(c, cfg, mk) })
	}

	// Irreducible vs reducible modulus; skewed (= irreducible) vs
	// unskewed I-Poly.
	addBadMiss("modulus=irreducible", func() *cache.Cache {
		return cache8K(index.NewIPolyDefault(2, setBits8K, hashInBits), cache.LRU)
	})
	addBadMiss("modulus=reducible", func() *cache.Cache {
		return cache8K(index.NewIPoly(reduciblePolys(2), setBits8K, hashInBits), cache.LRU)
	})
	addBadMiss("skew=unskewed", func() *cache.Cache {
		return cache8K(index.NewIPolyDefault(1, setBits8K, hashInBits), cache.LRU)
	})

	// Number of hashed address bits.
	vbits := []int{8, 9, 10, 12, 14}
	for _, v := range vbits {
		addBadMiss(fmt.Sprintf("vbits=%d", v), func() *cache.Cache {
			return cache8K(index.NewIPolyDefault(2, setBits8K, v), cache.LRU)
		})
	}

	// Replacement policies under skewing.
	repls := []cache.ReplPolicy{cache.LRU, cache.FIFO, cache.Random}
	for _, rp := range repls {
		addBadMiss("repl="+rp.String(), func() *cache.Cache {
			return cache8K(index.NewIPolyDefault(2, setBits8K, hashInBits), rp)
		})
	}

	// MSHR sweep on swim (conventional indexing: many misses to overlap).
	swim, _ := workload.ByName("swim")
	mshrs := []int{1, 2, 4, 8, 16}
	for _, n := range mshrs {
		add(fmt.Sprintf("mshrs=%d", n), func(context.Context) (float64, error) {
			coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
			coreCfg.MSHRs = n
			r := cpu.New(coreCfg).Run(limitedSource(swim, cfg.Seed, cfg.Instructions), cfg.Instructions)
			return r.IPC(), nil
		})
	}

	// Finite-L2 indexing (extension): with a small 64 KB L2 behind a
	// conventional L1, does polynomial indexing at L2 help?  (The paper's
	// §3.2 hierarchy uses a conventional L2; this quantifies the choice.)
	l2schemes := []index.Scheme{index.SchemeModulo, index.SchemeIPolySk}
	for _, l2scheme := range l2schemes {
		add("l2scheme="+string(l2scheme), func(context.Context) (float64, error) {
			l2place := index.MustNew(l2scheme, 10, 2, 16) // 64KB/32B/2-way => 1024 sets
			l2cfg := cache.Config{
				Size: 64 << 10, BlockSize: 32, Ways: 2,
				Placement: l2place, WriteBack: true, WriteAllocate: true,
			}
			coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
			coreCfg.L2 = &l2cfg
			coreCfg.L2MissPenalty = 60
			var ipcs []float64
			for _, name := range workload.BadPrograms() {
				prof, _ := workload.ByName(name)
				r := cpu.New(coreCfg).Run(limitedSource(prof, cfg.Seed, cfg.Instructions), cfg.Instructions)
				ipcs = append(ipcs, r.IPC())
			}
			return stats.GeoMean(ipcs), nil
		})
	}

	// Address predictor size on tomcatv with the XOR penalty.
	tom, _ := workload.ByName("tomcatv")
	ipoly := index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)
	apreds := []int{64, 256, 1024, 4096}
	for _, n := range apreds {
		add(fmt.Sprintf("apred=%d", n), func(context.Context) (float64, error) {
			coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly))
			coreCfg.XorInCP = true
			coreCfg.AddrPred = true
			coreCfg.APredEntries = n
			r := cpu.New(coreCfg).Run(limitedSource(tom, cfg.Seed, cfg.Instructions), cfg.Instructions)
			return r.IPC(), nil
		})
	}

	vals, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	next := 0
	take := func() float64 { v := vals[next]; next++; return v }
	res.IrreducibleMiss = take()
	res.ReducibleMiss = take()
	res.SkewedMiss = res.IrreducibleMiss
	res.UnskewedMiss = take()
	for _, v := range vbits {
		res.VBits = append(res.VBits, v+blockBits) // report as address bits
		res.VBitsMiss = append(res.VBitsMiss, take())
	}
	for _, rp := range repls {
		res.ReplNames = append(res.ReplNames, rp.String())
		res.ReplMiss = append(res.ReplMiss, take())
	}
	for _, n := range mshrs {
		res.MSHRCounts = append(res.MSHRCounts, n)
		res.MSHRIPC = append(res.MSHRIPC, take())
	}
	for _, s := range l2schemes {
		res.L2Schemes = append(res.L2Schemes, string(s))
		res.L2IPC = append(res.L2IPC, take())
	}
	for _, n := range apreds {
		res.APredSizes = append(res.APredSizes, n)
		res.APredIPC = append(res.APredIPC, take())
	}
	return res, nil
}

// report converts every ablation block.
func (res AblateResult) report(cfg AblateConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	t := exp.NewTable("ablate",
		"Design-choice ablations (bad-program mean load miss %, unless noted)",
		exp.StrCol("ablation"), exp.StrCol("variant"), exp.FloatCol("value", "%.3f"))
	t.AddRow("modulus polynomial", "irreducible", res.IrreducibleMiss)
	t.AddRow("modulus polynomial", "reducible", res.ReducibleMiss)
	t.AddRow("skewing", "per-way P (skewed)", res.SkewedMiss)
	t.AddRow("skewing", "shared P (unskewed)", res.UnskewedMiss)
	for i, v := range res.VBits {
		t.AddRow("hashed address bits", fmt.Sprintf("%d bits", v), res.VBitsMiss[i])
	}
	for i, n := range res.ReplNames {
		t.AddRow("replacement", n, res.ReplMiss[i])
	}
	for i, n := range res.MSHRCounts {
		t.AddRow("MSHR count (swim IPC)", fmt.Sprintf("%d", n), res.MSHRIPC[i])
	}
	for i, n := range res.L2Schemes {
		t.AddRow("finite 64KB L2 index (bad IPC)", n, res.L2IPC[i])
	}
	for i, n := range res.APredSizes {
		t.AddRow("addr-pred entries (tomcatv IPC)", fmt.Sprintf("%d", n), res.APredIPC[i])
	}
	rep.AddTable(t)
	return rep
}
