package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/cache/stackdist"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// OrgsConfig configures the §2.1 cache-organization comparison.
type OrgsConfig struct {
	exp.Base
}

// DefaultOrgsConfig returns the standard scale.
func DefaultOrgsConfig() OrgsConfig { return OrgsConfig{Base: exp.DefaultBase()} }

func (c OrgsConfig) normalize() OrgsConfig {
	c.Base.Normalize()
	return c
}

// OrgResult compares cache organizations on the benchmark suite's memory
// traces, reproducing the §2.1 comparison quoted from [10]: an 8 KB
// 2-way I-Poly cache approaches fully-associative miss ratios while the
// conventional cache is far behind.
type OrgResult struct {
	// Names of the organizations, in presentation order.
	Orgs []string
	// PerBench[b][o] is the miss ratio (%) of org o on benchmark b.
	Bench    []string
	PerBench [][]float64
	// Avg[o] is the arithmetic-mean miss ratio of organization o.
	Avg []float64
}

// orgNames lists the contestants in presentation order.  The skewed
// organizations are grid points; the LRU non-skewed ones (direct-mapped,
// 2-way, fully-assoc) come out of stack-distance engines; victim(4) and
// column-assoc are composite structures a Grid cannot subsume.  All
// replay as consumers of the same single trace pass.
func orgNames() []string {
	return []string{
		"direct-mapped", "2-way", "2-way skewed-Hx", "2-way shuffle-Hx2", "victim(4)",
		"column-assoc", "2-way I-Poly-Sk", "fully-assoc",
	}
}

// orgSpec builds the skewed contestants as a grid spec, all 8 KB with
// 32-byte lines, and the mapping from presentation index to grid point
// (-1 for the organizations simulated elsewhere: composites, and the
// LRU non-skewed points that orgEngines derives via stack distance).
func orgSpec() (spec cache.GridSpec, gridIdx []int) {
	base := func(ways int, p index.Placement) cache.Config {
		return cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: ways,
			Placement: p, WriteAllocate: false,
		}
	}
	spec = cache.GridSpec{
		base(2, index.NewXORFold(setBits8K, true)),
		base(2, index.NewXORShuffle(setBits8K)),
		base(2, index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)),
	}
	gridIdx = []int{-1, -1, 0, 1, -1, -1, 2, -1}
	return spec, gridIdx
}

// orgEngines builds the stack-distance engines behind the LRU
// non-skewed contestants — direct-mapped (256 sets), 2-way (128 sets)
// and fully-associative (1 set, 256 ways), all 8 KB with 32-byte lines
// and the paper's write-through non-allocating stores.  Their StatsAt
// results are bit-identical to the explicit grid points they replace
// (the stackdist differential suite pins this).
func orgEngines() (dm, twoWay, fa *stackdist.Engine) {
	dm = stackdist.New(stackdist.Config{Sets: 256, BlockSize: 32, MaxWays: 1})
	twoWay = stackdist.New(stackdist.Config{Sets: 128, BlockSize: 32, MaxWays: 2})
	fa = stackdist.New(stackdist.Config{Sets: 1, BlockSize: 32, MaxWays: 256, Placement: index.Single{}})
	return dm, twoWay, fa
}

// RunOrgsCtx runs the comparison on the parallel engine, one job per
// benchmark: the skewed organizations advance together inside a
// cache.Grid while the LRU non-skewed points (stack-distance engines)
// and the composite ones ride the same pass as auxiliary replays, so
// each benchmark's trace is streamed exactly once.
func RunOrgsCtx(ctx context.Context, cfg OrgsConfig) (OrgResult, error) {
	cfg = cfg.normalize()
	names := orgNames()
	spec, gridIdx := orgSpec()
	res := OrgResult{Orgs: names}
	suite, err := suiteFor(cfg.Base)
	if err != nil {
		return res, err
	}
	jobs := make([]runner.Job[[]float64], len(suite))
	for i, prof := range suite {
		jobs[i] = runner.KeyedJob("missratio/orgs/"+prof.Name,
			func(c context.Context) ([]float64, error) {
				// Shardable state: the skewed grid points, the three
				// stack-distance engines and the two composites.
				nsh := shardCount(len(spec) + 5)
				g := cache.NewShardedGrid(spec, nsh)
				dm, twoWay, fa := orgEngines()
				vic := cache.NewVictimCache(cache.Config{
					Size: 8 << 10, BlockSize: 32, Ways: 1, WriteAllocate: false,
				}, 4)
				col := cache.NewColumnAssociative(8<<10, 32, gf2.Irreducibles(8, 1)[0], 19)
				cons := append(gridConsumers(g),
					auxConsumer(func(recs []trace.Rec) { dm.AccessStream(recs) }),
					auxConsumer(func(recs []trace.Rec) { twoWay.AccessStream(recs) }),
					auxConsumer(func(recs []trace.Rec) { fa.AccessStream(recs) }),
					auxConsumer(func(recs []trace.Rec) { vic.AccessStream(recs) }),
					auxConsumer(func(recs []trace.Rec) { col.AccessStream(recs) }))
				err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nsh, cons...)
				if err != nil {
					return nil, err
				}
				row := make([]float64, len(names))
				for o := range names {
					switch {
					case gridIdx[o] >= 0:
						row[o] = 100 * g.StatsAt(gridIdx[o]).ReadMissRatio()
					case names[o] == "direct-mapped":
						row[o] = 100 * dm.StatsAt(1).ReadMissRatio()
					case names[o] == "2-way":
						row[o] = 100 * twoWay.StatsAt(2).ReadMissRatio()
					case names[o] == "fully-assoc":
						row[o] = 100 * fa.StatsAt(256).ReadMissRatio()
					case names[o] == "victim(4)":
						row[o] = 100 * vic.Stats().ReadMissRatio()
					default: // column-assoc
						row[o] = 100 * col.Stats().ReadMissRatio()
					}
				}
				return row, nil
			})
	}
	rowsByBench, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	sums := make([]float64, len(names))
	for i, prof := range suite {
		res.Bench = append(res.Bench, prof.Name)
		res.PerBench = append(res.PerBench, rowsByBench[i])
		for j, mr := range rowsByBench[i] {
			sums[j] += mr
		}
	}
	for _, s := range sums {
		res.Avg = append(res.Avg, s/float64(len(res.Bench)))
	}
	return res, nil
}

// report converts the comparison matrix.
func (res OrgResult) report(cfg OrgsConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	cols := []exp.Column{exp.StrCol("bench")}
	for _, o := range res.Orgs {
		cols = append(cols, exp.FloatCol(o, ""))
	}
	t := exp.NewTable("missratio",
		"Cache organization comparison (miss ratio %, 8KB, 32B lines)\nReproduces the §2.1 claim: I-Poly ≈ fully-associative ≪ conventional.",
		cols...)
	for i, bench := range res.Bench {
		cells := []any{bench}
		for _, v := range res.PerBench[i] {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	avgCells := []any{"average"}
	for _, v := range res.Avg {
		avgCells = append(avgCells, v)
	}
	t.AddRow(avgCells...)
	rep.AddTable(t)
	// The headline triple.
	idx := func(name string) int {
		for i, n := range res.Orgs {
			if n == name {
				return i
			}
		}
		return -1
	}
	rep.Notef("Headline: conventional 2-way %.2f%%  vs  I-Poly %.2f%%  vs  fully-assoc %.2f%%",
		res.Avg[idx("2-way")], res.Avg[idx("2-way I-Poly-Sk")], res.Avg[idx("fully-assoc")])
	rep.Notef("(paper quotes 13.84%% / 7.14%% / 6.80%% on Spec95)")
	return rep
}

// StdDevConfig configures the §5 predictability study.
type StdDevConfig struct {
	exp.Base
}

// DefaultStdDevConfig returns the standard scale.
func DefaultStdDevConfig() StdDevConfig { return StdDevConfig{Base: exp.DefaultBase()} }

func (c StdDevConfig) normalize() StdDevConfig {
	c.Base.Normalize()
	return c
}

// StdDevResult reproduces the §5 predictability claim: I-Poly reduces
// the standard deviation of miss ratios across the suite (paper: 18.49
// -> 5.16).
type StdDevResult struct {
	ConvMean, ConvStdDev      float64
	IPolyMean, IPolyStdDev    float64
	ConvByBench, IPolyByBench []float64
	Bench                     []string
}

// RunStdDevCtx measures per-benchmark 8 KB 2-way miss ratios under both
// indexings on the parallel engine — the skewed I-Poly point as a
// 1-point grid, the conventional point read off a stack-distance engine
// riding the same pass — and summarises their spread.
func RunStdDevCtx(ctx context.Context, cfg StdDevConfig) (StdDevResult, error) {
	cfg = cfg.normalize()
	var res StdDevResult
	spec := cache.GridSpec{
		{Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement:     index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits),
			WriteAllocate: false},
	}
	suite, err := suiteFor(cfg.Base)
	if err != nil {
		return res, err
	}
	type pair struct{ conv, ipoly float64 }
	jobs := make([]runner.Job[pair], len(suite))
	for i, prof := range suite {
		jobs[i] = runner.KeyedJob("missratio/stddev/"+prof.Name,
			func(c context.Context) (pair, error) {
				nsh := shardCount(len(spec) + 1)
				g := cache.NewShardedGrid(spec, nsh)
				conv := stackdist.New(stackdist.Config{Sets: 128, BlockSize: 32, MaxWays: 2})
				cons := append(gridConsumers(g),
					auxConsumer(func(recs []trace.Rec) { conv.AccessStream(recs) }))
				err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nsh, cons...)
				if err != nil {
					return pair{}, err
				}
				return pair{
					conv:  100 * conv.StatsAt(2).ReadMissRatio(),
					ipoly: 100 * g.StatsAt(0).ReadMissRatio(),
				}, nil
			})
	}
	pairs, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	for i, prof := range suite {
		res.Bench = append(res.Bench, prof.Name)
		res.ConvByBench = append(res.ConvByBench, pairs[i].conv)
		res.IPolyByBench = append(res.IPolyByBench, pairs[i].ipoly)
	}
	res.ConvMean = stats.Mean(res.ConvByBench)
	res.ConvStdDev = stats.StdDev(res.ConvByBench)
	res.IPolyMean = stats.Mean(res.IPolyByBench)
	res.IPolyStdDev = stats.StdDev(res.IPolyByBench)
	return res, nil
}

// report converts the spread summary.
func (res StdDevResult) report(cfg StdDevConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	t := exp.NewTable("stddev",
		"Miss-ratio predictability (§5): spread across the suite, 8KB 2-way",
		exp.StrCol("indexing"), exp.FloatCol("mean miss %", ""), exp.FloatCol("stddev", ""))
	t.AddRow("conventional", res.ConvMean, res.ConvStdDev)
	t.AddRow("I-Poly skewed", res.IPolyMean, res.IPolyStdDev)
	rep.AddTable(t)
	perBench := exp.NewTable("per-bench", "Per-benchmark load miss ratios (%)",
		exp.StrCol("bench"), exp.FloatCol("conventional", ""), exp.FloatCol("I-Poly skewed", ""))
	for i, b := range res.Bench {
		perBench.AddRow(b, res.ConvByBench[i], res.IPolyByBench[i])
	}
	rep.AddTable(perBench)
	rep.Notef("(paper: stddev 18.49 -> 5.16)")
	return rep
}
