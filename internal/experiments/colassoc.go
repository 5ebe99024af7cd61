package experiments

import (
	"context"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

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
func RunColAssocCtx(ctx context.Context, cfg exp.Base) (ColAssocResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res ColAssocResult
	type caCell struct {
		firstProbe, miss, avgProbes, noSwapMiss float64
	}
	suite, err := suiteFor(cfg)
	if err != nil {
		return res, err
	}
	jobs := make([]func(context.Context) (caCell, error), len(suite))
	for i, prof := range suite {
		jobs[i] = func(c context.Context) (caCell, error) {
			swap := newColAssocForExperiment()
			noswap := newColAssocForExperiment()
			noswap.Swap = false
			_, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nil,
				func(recs []trace.Rec) { swap.AccessStream(recs) },
				func(recs []trace.Rec) { noswap.AccessStream(recs) })
			if err != nil {
				return caCell{}, err
			}
			return caCell{
				firstProbe: swap.FirstProbeHitRate(),
				miss:       100 * swap.Stats().ReadMissRatio(),
				avgProbes:  swap.AvgProbesPerAccess(),
				noSwapMiss: 100 * noswap.Stats().ReadMissRatio(),
			}, nil
		}
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
func (res ColAssocResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
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
