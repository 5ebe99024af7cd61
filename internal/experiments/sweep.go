package experiments

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
)

// indexOfScheme returns the position of scheme in schemes (-1 if absent).
func indexOfScheme(schemes []index.Scheme, scheme index.Scheme) int {
	for i, s := range schemes {
		if s == scheme {
			return i
		}
	}
	return -1
}

// SweepConfig configures the design-space sweep.
type SweepConfig struct {
	exp.Base
}

// DefaultSweepConfig returns the standard scale.
func DefaultSweepConfig() SweepConfig { return SweepConfig{Base: exp.DefaultBase()} }

func (c SweepConfig) normalize() SweepConfig {
	c.Base.Normalize()
	return c
}

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

// SweepGridSpec returns the sweep's full design space as explicit grid
// points — the shape the experiment simulated before the conventional
// half moved onto stack-distance engines.  The benchmark's traced run
// (perfbench) replays this exact spec for cache.grid_ns_per_point and
// cache.sharded_grid_ns_per_point, so those figures describe the real
// sweep shape.
func SweepGridSpec() cache.GridSpec {
	sizesKB, ways, schemes := sweepDims()
	return sweepSpec(sizesKB, ways, schemes)
}

// sweepSetCounts returns the set-count ladder covering the sweep's
// conventional half: every (size, ways) point maps to sets =
// size/(blockSize*ways), so one stack-distance engine per set count
// answers for every conventional design point at once.
func sweepSetCounts(sizesKB, waysList []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, sizeKB := range sizesKB {
		for _, ways := range waysList {
			sets := sizeKB << 10 / 32 / ways
			if !seen[sets] {
				seen[sets] = true
				out = append(out, sets)
			}
		}
	}
	sort.Ints(out)
	return out
}

// sweepSpec builds the sweep's design-space grid spec in (size, ways,
// scheme) row-major order: point (si, wi, ki) lives at index
// (si*len(ways)+wi)*len(schemes)+ki.
func sweepSpec(sizesKB, waysList []int, schemes []index.Scheme) cache.GridSpec {
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
// per benchmark and one trace replay per job: the skewed I-Poly half
// runs as explicit cache.Grid points while the whole conventional half
// falls out of a stack-distance Family — one engine per set count,
// every associativity read off each — riding the same pass.
func RunSweepCtx(ctx context.Context, cfg SweepConfig) (SweepResult, error) {
	cfg = cfg.normalize()
	var res SweepResult
	res.SizesKB, res.Ways, res.Schemes = sweepDims()
	skewed := make([]index.Scheme, 0, 1)
	for _, s := range res.Schemes {
		if s != index.SchemeModulo {
			skewed = append(skewed, s)
		}
	}
	spec := sweepSpec(res.SizesKB, res.Ways, skewed)
	setCounts := sweepSetCounts(res.SizesKB, res.Ways)
	maxWays := res.Ways[len(res.Ways)-1]
	suite, err := suiteFor(cfg.Base)
	if err != nil {
		return res, err
	}
	// benchGrid[s][w][k] is one benchmark's read miss % per design point.
	type benchGrid [][][]float64
	jobs := make([]runner.Job[benchGrid], len(suite))
	for i, prof := range suite {
		jobs[i] = runner.KeyedJob("sweep/"+prof.Name,
			func(c context.Context) (benchGrid, error) {
				// Shard budget: the skewed grid points plus one consumer
				// per conventional set-count engine can all advance
				// concurrently over the shared chunk stream.
				nsh := shardCount(len(spec) + len(setCounts))
				g := cache.NewShardedGrid(spec, nsh)
				fam := stackdist.NewFamily(index.SchemeModulo, setCounts, 32, maxWays, hashInBits, false, false)
				cons := append(gridConsumers(g), famConsumers(fam)...)
				err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nsh, cons...)
				if err != nil {
					return nil, err
				}
				bySets := make(map[int]*stackdist.Engine, len(setCounts))
				for _, e := range fam.Engines() {
					bySets[e.Sets()] = e
				}
				grid := make(benchGrid, len(res.SizesKB))
				for si, sizeKB := range res.SizesKB {
					grid[si] = make([][]float64, len(res.Ways))
					for wi, ways := range res.Ways {
						grid[si][wi] = make([]float64, len(res.Schemes))
						for ki, scheme := range res.Schemes {
							var mr float64
							if scheme == index.SchemeModulo {
								e := bySets[sizeKB<<10/32/ways]
								mr = 100 * e.StatsAt(ways).ReadMissRatio()
							} else {
								pt := (si*len(res.Ways)+wi)*len(skewed) + indexOfScheme(skewed, scheme)
								mr = 100 * g.StatsAt(pt).ReadMissRatio()
							}
							grid[si][wi][ki] = mr
						}
					}
				}
				return grid, nil
			})
	}
	grids, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	for si := range res.SizesKB {
		var perWays [][]float64
		for wi := range res.Ways {
			var perScheme []float64
			for ki := range res.Schemes {
				ratios := make([]float64, len(grids))
				for b, g := range grids {
					ratios[b] = g[si][wi][ki]
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
func (res SweepResult) report(cfg SweepConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
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
