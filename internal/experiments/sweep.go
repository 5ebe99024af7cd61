package experiments

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepResult maps the cache design space: suite-average load miss ratio
// for every (size, ways, scheme) point.  It generalises the paper's
// 8 KB/16 KB comparison and shows where conventional associativity or
// capacity growth finally catches the 8 KB I-Poly cache.
type SweepResult struct {
	SizesKB []int
	Ways    []int
	Schemes []index.Scheme
	// Miss[s][w][k] is the average load miss % for SizesKB[s], Ways[w],
	// Schemes[k].
	Miss [][][]float64
}

// sweepDims returns the sweep's design-space dimensions.
func sweepDims() (sizesKB, ways []int, schemes []index.Scheme) {
	return []int{4, 8, 16, 32}, []int{1, 2, 4},
		[]index.Scheme{index.SchemeModulo, index.SchemeIPolySk}
}

// SweepGridSpec returns the sweep's design space as explicit cache
// points in (size, ways, scheme) row-major order: point (si, wi, ki)
// lives at index (si*len(ways)+wi)*len(schemes)+ki.  RunSweepCtx
// simulates exactly this spec, and the benchmark's traced run
// (perfbench) replays it on a cache.Grid for cache.grid_ns_per_point
// and cache.sharded_grid_ns_per_point.
func SweepGridSpec() cache.GridSpec {
	sizesKB, waysList, schemes := sweepDims()
	spec := make(cache.GridSpec, 0, len(sizesKB)*len(waysList)*len(schemes))
	for _, sizeKB := range sizesKB {
		for _, ways := range waysList {
			for _, scheme := range schemes {
				sets := sizeKB << 10 / 32 / ways
				setBits := bits.TrailingZeros(uint(sets))
				place := index.MustNew(scheme, setBits, ways, hashInBits)
				spec = append(spec, cache.Config{
					Size: sizeKB << 10, BlockSize: 32, Ways: ways,
					Placement: place, WriteAllocate: false,
				})
			}
		}
	}
	return spec
}

// RunSweepCtx sweeps sizes {4,8,16,32} KB × ways {1,2,4} × schemes
// {a2, a2-Hp-Sk} over the full suite on the parallel engine, one job
// per benchmark and one trace replay per job through runGrid.
func RunSweepCtx(ctx context.Context, cfg exp.Base) (SweepResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res SweepResult
	res.SizesKB, res.Ways, res.Schemes = sweepDims()
	spec := SweepGridSpec()
	_, perBench, err := forEachProgram(ctx, cfg, func(c context.Context, prof workload.Profile) ([]cache.Stats, error) {
		return runGrid(c, prof, cfg.Seed, cfg.Instructions, spec)
	})
	if err != nil {
		return res, err
	}
	for si := range res.SizesKB {
		var perWays [][]float64
		for wi := range res.Ways {
			var perScheme []float64
			for ki := range res.Schemes {
				k := (si*len(res.Ways)+wi)*len(res.Schemes) + ki
				ratios := make([]float64, len(perBench))
				for b, st := range perBench {
					ratios[b] = 100 * st[k].ReadMissRatio()
				}
				perScheme = append(perScheme, stats.Mean(ratios))
			}
			perWays = append(perWays, perScheme)
		}
		res.Miss = append(res.Miss, perWays)
	}
	return res, nil
}

// At returns the average miss % for a design point.
func (res SweepResult) At(sizeKB, ways int, scheme index.Scheme) (float64, bool) {
	si, wi, ki := -1, -1, -1
	for i, s := range res.SizesKB {
		if s == sizeKB {
			si = i
		}
	}
	for i, w := range res.Ways {
		if w == ways {
			wi = i
		}
	}
	for i, k := range res.Schemes {
		if k == scheme {
			ki = i
		}
	}
	if si < 0 || wi < 0 || ki < 0 {
		return 0, false
	}
	return res.Miss[si][wi][ki], true
}

// report converts the design-space grid.
func (res SweepResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
	cols := []exp.Column{exp.StrCol("size")}
	for _, w := range res.Ways {
		for _, s := range res.Schemes {
			cols = append(cols, exp.FloatCol(fmt.Sprintf("%dw %s", w, s), ""))
		}
	}
	t := exp.NewTable("sweep",
		"Design-space sweep: suite-average load miss % (32B lines)", cols...)
	for si, sizeKB := range res.SizesKB {
		cells := []any{fmt.Sprintf("%dKB", sizeKB)}
		for wi := range res.Ways {
			for ki := range res.Schemes {
				cells = append(cells, res.Miss[si][wi][ki])
			}
		}
		t.AddRow(cells...)
	}
	rep.AddTable(t)
	if ip8, ok := res.At(8, 2, index.SchemeIPolySk); ok {
		if c16, ok2 := res.At(16, 2, index.SchemeModulo); ok2 {
			verdict := "capacity wins at this scale."
			if ip8 < c16 {
				verdict = "the hash beats doubling capacity (the paper's Table 2/3 observation)."
			}
			rep.Notef("8KB 2-way I-Poly (%.2f%%) vs 16KB 2-way conventional (%.2f%%): %s",
				ip8, c16, verdict)
		}
	}
	return rep
}
