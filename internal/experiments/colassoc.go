package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ColAssocConfig configures the §3.1 option-4 probe study.
type ColAssocConfig struct {
	exp.Base
}

// DefaultColAssocConfig returns the standard scale.
func DefaultColAssocConfig() ColAssocConfig { return ColAssocConfig{Base: exp.DefaultBase()} }

func (c ColAssocConfig) normalize() ColAssocConfig {
	c.Base.Normalize()
	return c
}

// ColAssocResult reproduces the §3.1 option-4 study: a direct-mapped
// cache with a conventional first probe and polynomial second probe,
// swapping lines so most hits land on the first probe (paper: ~90 %).
type ColAssocResult struct {
	Bench          []string
	FirstProbeRate []float64 // fraction of hits on the first probe
	MissRatio      []float64 // %
	AvgProbes      []float64 // mean probes per access
	// NoSwap rows: the same structure without swapping (hash-rehash).
	NoSwapMissRatio []float64
}

// RunColAssocCtx runs the probe study on the parallel engine, one job
// per benchmark (both variants share the job's single trace replay).
func RunColAssocCtx(ctx context.Context, cfg ColAssocConfig) (ColAssocResult, error) {
	cfg = cfg.normalize()
	var res ColAssocResult
	p := gf2.Irreducibles(8, 1)[0]
	type caCell struct {
		firstProbe, miss, avgProbes, noSwapMiss float64
	}
	suite, err := suiteFor(cfg.Base)
	if err != nil {
		return res, err
	}
	jobs := make([]runner.Job[caCell], len(suite))
	for i, prof := range suite {
		jobs[i] = runner.KeyedJob("colassoc/"+prof.Name,
			func(c context.Context) (caCell, error) {
				swap := cache.NewColumnAssociative(8<<10, 32, p, 19)
				noswap := cache.NewColumnAssociative(8<<10, 32, p, 19)
				noswap.Swap = false
				err := forEachMemChunk(c, prof, cfg.Seed, cfg.Instructions, func(recs []trace.Rec) {
					swap.AccessStream(recs)
					noswap.AccessStream(recs)
				})
				if err != nil {
					return caCell{}, err
				}
				return caCell{
					firstProbe: swap.FirstProbeHitRate(),
					miss:       100 * swap.Stats().ReadMissRatio(),
					avgProbes:  swap.AvgProbesPerAccess(),
					noSwapMiss: 100 * noswap.Stats().ReadMissRatio(),
				}, nil
			})
	}
	cells, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	for i, prof := range suite {
		res.Bench = append(res.Bench, prof.Name)
		res.FirstProbeRate = append(res.FirstProbeRate, cells[i].firstProbe)
		res.MissRatio = append(res.MissRatio, cells[i].miss)
		res.AvgProbes = append(res.AvgProbes, cells[i].avgProbes)
		res.NoSwapMissRatio = append(res.NoSwapMissRatio, cells[i].noSwapMiss)
	}
	return res, nil
}

// report converts per-benchmark probe behaviour.
func (res ColAssocResult) report(cfg ColAssocConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	t := exp.NewTable("colassoc",
		"Column-associative polynomial rehash (§3.1 option 4), 8KB direct-mapped",
		exp.StrCol("bench"),
		exp.FloatCol("first-probe hit rate", "%.3f"),
		exp.FloatCol("avg probes", "%.3f"),
		exp.FloatCol("miss %", ""),
		exp.FloatCol("miss % (no swap)", ""))
	for i, n := range res.Bench {
		t.AddRow(n, res.FirstProbeRate[i], res.AvgProbes[i], res.MissRatio[i], res.NoSwapMissRatio[i])
	}
	rep.AddTable(t)
	rep.Notef("Mean first-probe hit rate: %.1f%% (paper reports ~90%%)",
		100*stats.Mean(res.FirstProbeRate))
	return rep
}
