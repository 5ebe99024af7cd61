package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/workload"
)

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

// ThreeCResult reproduces the §4 observation that motivates Table 3's
// split: under conventional indexing, the conflict-miss component is
// below a few percent for all programs except tomcatv, swim and wave5;
// under I-Poly the conflict component collapses for everyone.
type ThreeCResult struct {
	Conventional []ThreeCRow
	IPoly        []ThreeCRow
}

// threeCRow reads one benchmark's row off a classified cache's
// statistics and miss breakdown.
func threeCRow(prof workload.Profile, st cache.Stats, brk cache.MissBreakdown) ThreeCRow {
	loads := st.ReadHits + st.ReadMisses
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
	}
}

// RunThreeCCtx runs the classification on the parallel engine, one job
// per benchmark: one classifier rides its single trace pass, labelling
// the load misses of an 8 KB 2-way cache under each indexing against
// one shadow.
func RunThreeCCtx(ctx context.Context, cfg exp.Base) (ThreeCResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res ThreeCResult
	places := []index.Placement{
		index.MustNew(index.SchemeModulo, setBits8K, 2, hashInBits),
		index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits),
	}
	_, rows, err := forEachProgram(ctx, cfg, func(c context.Context, prof workload.Profile) ([2]ThreeCRow, error) {
		var caches [2]*cache.Cache
		for k, place := range places {
			caches[k] = cache.New(cache.Config{
				Size: 8 << 10, BlockSize: 32, Ways: 2,
				Placement: place, WriteAllocate: false,
			})
		}
		cl := cache.NewClassifier(caches[:]...)
		var rows [2]ThreeCRow
		if _, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nil, cl.ClassifyStream); err != nil {
			return rows, err
		}
		for k, ca := range caches {
			rows[k] = threeCRow(prof, ca.Stats(), cl.Breakdown(k))
		}
		return rows, nil
	})
	if err != nil {
		return res, err
	}
	for _, r := range rows {
		res.Conventional = append(res.Conventional, r[0])
		res.IPoly = append(res.IPoly, r[1])
	}
	return res, nil
}

// report converts the side-by-side breakdown.
func (res ThreeCResult) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
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
