package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

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

// ablateVariant is one cache-level ablation: an 8 KB, 2-way,
// write-through, no-write-allocate I-Poly cache of 32-byte blocks whose
// index hashes vbits block-address bits through polys per-way moduli
// (2 skews the ways, 1 does not), irreducible unless reducible is set.
type ablateVariant struct {
	reducible    bool
	polys, vbits int
	repl         cache.ReplPolicy
}

func (v ablateVariant) config() cache.Config {
	p := index.NewIPolyDefault(v.polys, setBits8K, v.vbits)
	if v.reducible {
		p = index.NewIPoly(reduciblePolys(v.polys), setBits8K, v.vbits)
	}
	return cache.Config{Size: 8 << 10, BlockSize: 32, Ways: 2, Placement: p, Replacement: v.repl}
}

// Hashed-address-bit counts and replacement policies the ablation
// compares under skewed I-Poly.
var (
	ablateVBits = []int{8, 9, 10, 12, 14}
	ablateRepls = []cache.ReplPolicy{cache.LRU, cache.FIFO, cache.Random}
)

// ablateSpec lists the distinct caches of the eleven cache-level
// ablations and, for each ablation in report order (irreducible and
// reducible modulus, unskewed, each hashed-bit count, each replacement
// policy), the spec point it reads.  Equal variants share a point: the
// irreducible modulus, 14 hashed bits and LRU are all the skewed
// baseline.
func ablateSpec() (spec cache.GridSpec, read []int) {
	base := ablateVariant{polys: 2, vbits: hashInBits, repl: cache.LRU}
	vs := []ablateVariant{base, base, base}
	vs[1].reducible = true
	vs[2].polys = 1
	for _, v := range ablateVBits {
		vs = append(vs, base)
		vs[len(vs)-1].vbits = v
	}
	for _, rp := range ablateRepls {
		vs = append(vs, base)
		vs[len(vs)-1].repl = rp
	}
	var seen []ablateVariant
	for _, v := range vs {
		i := slices.Index(seen, v)
		if i < 0 {
			i = len(seen)
			seen = append(seen, v)
			spec = append(spec, v.config())
		}
		read = append(read, i)
	}
	return spec, read
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
// an IPC): the cache-level ablations ride one trace pass per bad
// program, each core variant is a job of its own, and the reducer
// decodes the flattened values positionally.
func RunAblateCtx(ctx context.Context, cfg exp.Base) (AblateResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res AblateResult

	// One trace pass per bad program replays every cache-level ablation;
	// its job returns the program's load miss ratio (%) per ablation.
	// Every other job returns one value, an IPC, from runCore.
	spec, read := ablateSpec()
	bad := workload.BadPrograms()
	var jobs []func(context.Context) ([]float64, error)
	for _, name := range bad {
		prof, _ := workload.ByName(name)
		jobs = append(jobs, func(c context.Context) ([]float64, error) {
			st, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, spec)
			if err != nil {
				return nil, err
			}
			miss := make([]float64, len(read))
			for i, k := range read {
				miss[i] = 100 * st[k].ReadMissRatio()
			}
			return miss, nil
		})
	}
	// ipc adds a job returning the core's IPC under coreCfg on one
	// program.
	ipc := func(prog string, coreCfg cpu.Config) {
		prof, _ := workload.ByName(prog)
		jobs = append(jobs, func(c context.Context) ([]float64, error) {
			r, err := runCore(c, prof, cfg.Seed, cfg.Instructions, coreCfg)
			return []float64{r.IPC()}, err
		})
	}

	// MSHR sweep on swim (conventional indexing: many misses to overlap).
	mshrs := []int{1, 2, 4, 8, 16}
	for _, n := range mshrs {
		coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
		coreCfg.MSHRs = n
		ipc("swim", coreCfg)
	}

	// Finite-L2 indexing (extension): with a small 64 KB L2 behind a
	// conventional L1, does polynomial indexing at L2 help?  (The paper's
	// §3.2 hierarchy uses a conventional L2; this quantifies the choice.)
	// Each scheme's job returns the geometric mean over the bad programs.
	l2schemes := []index.Scheme{index.SchemeModulo, index.SchemeIPolySk}
	for _, l2scheme := range l2schemes {
		l2place := index.MustNew(l2scheme, 10, 2, 16) // 64KB/32B/2-way => 1024 sets
		l2cfg := cache.Config{
			Size: 64 << 10, BlockSize: 32, Ways: 2,
			Placement: l2place, WriteBack: true, WriteAllocate: true,
		}
		coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, nil))
		coreCfg.L2 = &l2cfg
		coreCfg.L2MissPenalty = 60
		jobs = append(jobs, func(c context.Context) ([]float64, error) {
			var ipcs []float64
			for _, name := range bad {
				prof, _ := workload.ByName(name)
				r, err := runCore(c, prof, cfg.Seed, cfg.Instructions, coreCfg)
				if err != nil {
					return nil, err
				}
				ipcs = append(ipcs, r.IPC())
			}
			return []float64{stats.GeoMean(ipcs)}, nil
		})
	}

	// Address predictor size on tomcatv with the XOR penalty.
	ipoly := index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)
	apreds := []int{64, 256, 1024, 4096}
	for _, n := range apreds {
		coreCfg := cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly))
		coreCfg.XorInCP = true
		coreCfg.AddrPred = true
		coreCfg.APredEntries = n
		ipc("tomcatv", coreCfg)
	}

	vals, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	// Flatten: each cache-level ablation's mean over the bad programs,
	// then the IPCs in job order.
	var flat []float64
	for i := range read {
		ratios := make([]float64, len(bad))
		for p := range bad {
			ratios[p] = vals[p][i]
		}
		flat = append(flat, stats.Mean(ratios))
	}
	for _, v := range vals[len(bad):] {
		flat = append(flat, v[0])
	}
	next := 0
	take := func() float64 { v := flat[next]; next++; return v }
	res.IrreducibleMiss = take()
	res.ReducibleMiss = take()
	res.SkewedMiss = res.IrreducibleMiss
	res.UnskewedMiss = take()
	for _, v := range ablateVBits {
		res.VBits = append(res.VBits, v+blockBits) // report as address bits
		res.VBitsMiss = append(res.VBitsMiss, take())
	}
	for _, rp := range ablateRepls {
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
func (res AblateResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
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
