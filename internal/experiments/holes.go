package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// HolesRow compares the analytical hole probability (eq. ix) with the
// simulated hole rate for one L2 size.
type HolesRow struct {
	L2KB     int
	Ratio    int // L2:L1 size ratio
	ModelPH  float64
	Measured float64
	L2Misses uint64
	Holes    uint64
}

// HolesResult reproduces the §3.3 validation: the model is accurate for
// size ratios >= 16, and on the benchmark suite the hole rate is tiny.
type HolesResult struct {
	Sweep []HolesRow
	// Suite results: hole rate per benchmark with the paper's 8 KB skewed
	// I-Poly L1 over a 1 MB conventional 2-way L2 (paper: average < 0.1 %,
	// never > 1.2 %).
	SuiteNames []string
	SuiteRates []float64
	// SuiteHoleMissShare is holes' contribution to the L1 miss ratio
	// (paper: negligible).
	SuiteHoleMissShare []float64
}

// RunHolesCtx runs both parts of the §3.3 study on the parallel engine:
// one job per L2 size in the model-validation sweep, one job per
// benchmark in the suite measurement.
func RunHolesCtx(ctx context.Context, cfg exp.Base) (HolesResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res HolesResult

	// Part 1: direct-mapped L1/L2 with pseudo-random indices at both
	// levels, random traffic — the setting of the analytical model.
	const l1KB = 8
	l2Sizes := []int{32, 64, 128, 256, 512, 1024}
	// Both parts share one pool run (a single job list, decoded
	// positionally) so workers stay busy across the seam.
	var jobs []func(context.Context) (any, error)
	for _, l2KB := range l2Sizes {
		jobs = append(jobs, func(c context.Context) (any, error) {
			m1 := 8 // 8 KB direct-mapped, 32 B lines => 256 sets
			m2 := 0
			for v := l2KB << 10 / 32; v > 1; v >>= 1 {
				m2++
			}
			hcfg := hierarchy.Config{
				L1: cache.Config{
					Size: l1KB << 10, BlockSize: 32, Ways: 1,
					Placement:     index.NewIPolyDefault(1, m1, hashInBits),
					WriteAllocate: true,
				},
				L2: cache.Config{
					Size: l2KB << 10, BlockSize: 32, Ways: 1,
					Placement: index.NewIPolyDefault(1, m2, m2+8),
					WriteBack: true, WriteAllocate: true,
				},
				ScrambleSeed: cfg.Seed,
			}
			h := hierarchy.New(hcfg)
			r := rng.New(cfg.Seed)
			n := 2 * cfg.Instructions
			for i := uint64(0); i < n; i++ {
				if i&0xFFFF == 0 && c.Err() != nil {
					return HolesRow{}, c.Err()
				}
				h.Access(uint64(r.Intn(16<<20)), false)
			}
			s := h.Stats()
			return HolesRow{
				L2KB:     l2KB,
				Ratio:    l2KB / l1KB,
				ModelPH:  hierarchy.ModelPH(m1, m2),
				Measured: s.HoleRate(),
				L2Misses: s.L2Misses,
				Holes:    s.Holes,
			}, nil
		})
	}

	// Part 2: the benchmark suite on the paper's hierarchy (8 KB 2-way
	// skewed I-Poly L1, 1 MB 2-way conventional L2).
	type suiteCell struct {
		rate, share float64
	}
	suite, err := suiteFor(cfg)
	if err != nil {
		return res, err
	}
	for _, prof := range suite {
		jobs = append(jobs, func(c context.Context) (any, error) {
			hcfg := hierarchy.Config{
				L1: cache.Config{
					Size: 8 << 10, BlockSize: 32, Ways: 2,
					Placement:     index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits),
					WriteAllocate: false,
				},
				L2: cache.Config{
					Size: 1 << 20, BlockSize: 32, Ways: 2,
					WriteBack: true, WriteAllocate: true,
				},
				ScrambleSeed: cfg.Seed,
			}
			// The two-level hierarchy is a composite structure a flat
			// Grid cannot subsume; it replays the benchmark's memory
			// trace on its own, once per benchmark.
			h := hierarchy.New(hcfg)
			_, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nil, func(recs []trace.Rec) {
				for i := range recs {
					h.Access(recs[i].Addr, recs[i].Op == trace.OpStore)
				}
			})
			if err != nil {
				return suiteCell{}, err
			}
			st := h.Stats()
			cell := suiteCell{rate: st.HoleRate()}
			if st.L1Misses > 0 {
				cell.share = float64(st.HoleMisses) / float64(st.L1Misses)
			}
			return cell, nil
		})
	}

	vals, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	for i := range l2Sizes {
		res.Sweep = append(res.Sweep, vals[i].(HolesRow))
	}
	for i, prof := range suite {
		cell := vals[len(l2Sizes)+i].(suiteCell)
		res.SuiteNames = append(res.SuiteNames, prof.Name)
		res.SuiteRates = append(res.SuiteRates, cell.rate)
		res.SuiteHoleMissShare = append(res.SuiteHoleMissShare, cell.share)
	}
	return res, nil
}

// report converts both parts.
func (res HolesResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
	t := exp.NewTable("sweep",
		"Hole probability (§3.3): model P_H = (2^m1 - 1)/2^m2 vs simulation\n(direct-mapped pseudo-random L1 8KB / L2 swept, random traffic)",
		exp.StrCol("L2"), exp.IntCol("ratio"),
		exp.FloatCol("model P_H", "%.4f"), exp.FloatCol("measured", "%.4f"),
		exp.IntCol("L2 misses"), exp.IntCol("holes"))
	for _, r := range res.Sweep {
		t.AddRow(fmt.Sprintf("%dKB", r.L2KB), r.Ratio, r.ModelPH, r.Measured, r.L2Misses, r.Holes)
	}
	rep.AddTable(t)
	// Rates are stored as raw fractions (not percentages) so the JSON
	// envelope and the golden pins carry the driver's exact values.
	suite := exp.NewTable("suite",
		"Benchmark suite, 8KB 2-way skewed I-Poly L1 / 1MB 2-way conventional L2",
		exp.StrCol("bench"),
		exp.FloatCol("holes per L2 miss", "%.6f"),
		exp.FloatCol("hole share of L1 misses", "%.6f"))
	var rates []float64
	for i, n := range res.SuiteNames {
		suite.AddRow(n, res.SuiteRates[i], res.SuiteHoleMissShare[i])
		rates = append(rates, res.SuiteRates[i])
	}
	rep.AddTable(suite)
	rep.Notef("Suite average hole rate: %.4f%% (paper: avg < 0.1%%, max 1.2%%); max: %.4f%%",
		100*stats.Mean(rates), 100*stats.Max(rates))
	return rep
}
