package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

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

// orgNames lists the contestants in presentation order.  The flat
// caches are points of one runGrid spec; victim(4) and column-assoc are
// composite structures riding the same single trace pass.
func orgNames() []string {
	return []string{
		"direct-mapped", "2-way", "2-way skewed-Hx", "2-way shuffle-Hx2", "victim(4)",
		"column-assoc", "2-way I-Poly-Sk", "fully-assoc",
	}
}

// orgSpec lists the flat contestants as cache points, all 8 KB with
// 32-byte lines and the paper's write-through non-allocating stores,
// and maps each presentation index to its point (-1 for the
// composites).
func orgSpec() (spec cache.GridSpec, pointIdx []int) {
	base := func(ways int, p index.Placement) cache.Config {
		return cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: ways,
			Placement: p, WriteAllocate: false,
		}
	}
	spec = cache.GridSpec{
		base(1, nil),
		base(2, nil),
		base(2, index.NewXORFold(setBits8K, true)),
		base(2, index.NewXORShuffle(setBits8K)),
		base(2, index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)),
		base(256, index.Single{}),
	}
	pointIdx = []int{0, 1, 2, 3, -1, -1, 4, 5}
	return spec, pointIdx
}

// RunOrgsCtx runs the comparison on the parallel engine, one job per
// benchmark: the flat organizations are points of one runGrid call and
// the composite ones ride the same pass as auxiliary consumers, so each
// benchmark's trace is streamed exactly once.
func RunOrgsCtx(ctx context.Context, cfg exp.Base) (OrgResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	names := orgNames()
	spec, pointIdx := orgSpec()
	res := OrgResult{Orgs: names}
	suite, rowsByBench, err := forEachProgram(ctx, cfg, func(c context.Context, prof workload.Profile) ([]float64, error) {
		vic := cache.NewVictimCache(cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 1, WriteAllocate: false,
		}, 4)
		col := newColAssocForExperiment()
		st, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, spec,
			func(recs []trace.Rec) { vic.AccessStream(recs) },
			func(recs []trace.Rec) { col.AccessStream(recs) })
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(names))
		for o := range names {
			switch {
			case pointIdx[o] >= 0:
				row[o] = 100 * st[pointIdx[o]].ReadMissRatio()
			case names[o] == "victim(4)":
				row[o] = 100 * vic.Stats().ReadMissRatio()
			default: // column-assoc
				row[o] = 100 * col.Stats().ReadMissRatio()
			}
		}
		return row, nil
	})
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
func (res OrgResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
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
// indexings on the parallel engine, both caches riding one runGrid
// pass per benchmark, and summarises their spread.
func RunStdDevCtx(ctx context.Context, cfg exp.Base) (StdDevResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res StdDevResult
	spec := cache.GridSpec{
		{Size: 8 << 10, BlockSize: 32, Ways: 2, WriteAllocate: false},
		{Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement:     index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits),
			WriteAllocate: false},
	}
	suite, perBench, err := forEachProgram(ctx, cfg, func(c context.Context, prof workload.Profile) ([]cache.Stats, error) {
		return runGrid(c, prof, cfg.Seed, cfg.Instructions, spec)
	})
	if err != nil {
		return res, err
	}
	for i, prof := range suite {
		res.Bench = append(res.Bench, prof.Name)
		res.ConvByBench = append(res.ConvByBench, 100*perBench[i][0].ReadMissRatio())
		res.IPolyByBench = append(res.IPolyByBench, 100*perBench[i][1].ReadMissRatio())
	}
	res.ConvMean = stats.Mean(res.ConvByBench)
	res.ConvStdDev = stats.StdDev(res.ConvByBench)
	res.IPolyMean = stats.Mean(res.IPolyByBench)
	res.IPolyStdDev = stats.StdDev(res.IPolyByBench)
	return res, nil
}

// report converts the spread summary.
func (res StdDevResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
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
