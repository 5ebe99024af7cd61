package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ThreeCConfig configures the §4 miss-classification study.
type ThreeCConfig struct {
	exp.Base
}

// DefaultThreeCConfig returns the standard scale.
func DefaultThreeCConfig() ThreeCConfig { return ThreeCConfig{Base: exp.DefaultBase()} }

func (c ThreeCConfig) normalize() ThreeCConfig {
	c.Base.Normalize()
	return c
}

// ThreeCRow is one benchmark's miss breakdown under one indexing scheme,
// expressed as a percentage of loads (so the columns sum to the load
// miss ratio).
type ThreeCRow struct {
	Name       string
	Bad        bool
	Compulsory float64
	Capacity   float64
	Conflict   float64
}

// Total returns the load miss ratio (%).
func (r ThreeCRow) Total() float64 { return r.Compulsory + r.Capacity + r.Conflict }

// ThreeCResult reproduces the §4 observation that motivates Table 3's
// split: under conventional indexing, the conflict-miss component is
// below a few percent for all programs except tomcatv, swim and wave5;
// under I-Poly the conflict component collapses for everyone.
type ThreeCResult struct {
	Conventional []ThreeCRow
	IPoly        []ThreeCRow
}

// threeCBench classifies one benchmark's loads under one placement.
func threeCBench(ctx context.Context, cfg ThreeCConfig, prof workload.Profile, place index.Placement) (ThreeCRow, error) {
	c := cache.New(cache.Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: place, WriteAllocate: false,
	})
	cl := cache.NewClassifier(256)
	loads := uint64(0)
	var brk cache.MissBreakdown
	err := forEachMemChunk(ctx, prof, cfg.Seed, cfg.Instructions, func(recs []trace.Rec) {
		for i := range recs {
			write := recs[i].Op == trace.OpStore
			hit := c.Access(recs[i].Addr, write).Hit
			if write {
				// Stores are write-through/no-allocate; classify loads
				// only, as the paper's tables report load misses.
				continue
			}
			loads++
			if kind, missed := cl.Observe(c.Block(recs[i].Addr), !hit); missed {
				switch kind {
				case cache.MissCompulsory:
					brk.Compulsory++
				case cache.MissCapacity:
					brk.Capacity++
				case cache.MissConflict:
					brk.Conflict++
				}
			}
		}
	})
	if err != nil {
		return ThreeCRow{}, err
	}
	pct := func(n uint64) float64 {
		if loads == 0 {
			return 0
		}
		return 100 * float64(n) / float64(loads)
	}
	return ThreeCRow{
		Name: prof.Name, Bad: prof.Bad,
		Compulsory: pct(brk.Compulsory),
		Capacity:   pct(brk.Capacity),
		Conflict:   pct(brk.Conflict),
	}, nil
}

// RunThreeCCtx runs the classification on the parallel engine, one job
// per (indexing, benchmark) pair.
func RunThreeCCtx(ctx context.Context, cfg ThreeCConfig) (ThreeCResult, error) {
	cfg = cfg.normalize()
	var res ThreeCResult
	suite, err := suiteFor(cfg.Base)
	if err != nil {
		return res, err
	}
	schemes := []index.Scheme{index.SchemeModulo, index.SchemeIPolySk}
	var jobs []runner.Job[ThreeCRow]
	for _, scheme := range schemes {
		place := index.MustNew(scheme, setBits8K, 2, hashInBits)
		for _, prof := range suite {
			jobs = append(jobs, runner.KeyedJob(
				fmt.Sprintf("threec/%s/%s", scheme, prof.Name),
				func(c context.Context) (ThreeCRow, error) {
					return threeCBench(c, cfg, prof, place)
				}))
		}
	}
	rows, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	res.Conventional = rows[:len(suite)]
	res.IPoly = rows[len(suite):]
	return res, nil
}

// report converts the side-by-side breakdown.
func (res ThreeCResult) report(cfg ThreeCConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	t := exp.NewTable("threec",
		"3C miss classification, % of loads (8KB 2-way, 32B lines)\nPaper §4: conventional conflict component < 4% except tomcatv/swim/wave5.",
		exp.StrCol("bench"), exp.StrCol("bad"),
		exp.FloatCol("conv compulsory", ""), exp.FloatCol("conv capacity", ""), exp.FloatCol("conv conflict", ""),
		exp.FloatCol("Hp compulsory", ""), exp.FloatCol("Hp capacity", ""), exp.FloatCol("Hp conflict", ""))
	for i, c := range res.Conventional {
		p := res.IPoly[i]
		mark := ""
		if c.Bad {
			mark = "*"
		}
		t.AddRow(c.Name, mark, c.Compulsory, c.Capacity, c.Conflict,
			p.Compulsory, p.Capacity, p.Conflict)
	}
	rep.AddTable(t)
	var convConf, ipConf []float64
	for i := range res.Conventional {
		convConf = append(convConf, res.Conventional[i].Conflict)
		ipConf = append(ipConf, res.IPoly[i].Conflict)
	}
	rep.Notef("Mean conflict component: conventional %.2f%% -> I-Poly %.2f%%  (* = Table 3 bad programs)",
		stats.Mean(convConf), stats.Mean(ipConf))
	return rep
}
