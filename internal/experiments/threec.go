package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
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

// threeC returns a chunk consumer classifying one benchmark's loads in
// an 8 KB 2-way cache with the given placement, and the function that
// reads its row once the pass is over.
func threeC(prof workload.Profile, place index.Placement) (func(recs []trace.Rec), func() ThreeCRow) {
	c := cache.New(cache.Config{
		Size: 8 << 10, BlockSize: 32, Ways: 2,
		Placement: place, WriteAllocate: false,
	})
	cl := cache.NewClassifier(256)
	consume := func(recs []trace.Rec) {
		for i := range recs {
			write := recs[i].Op == trace.OpStore
			hit := c.Access(recs[i].Addr, write).Hit
			// Stores are write-through/no-allocate; classify loads only,
			// as the paper's tables report load misses.
			if !write {
				cl.Observe(c.Block(recs[i].Addr), !hit)
			}
		}
	}
	row := func() ThreeCRow {
		st := c.Stats()
		loads := st.ReadHits + st.ReadMisses
		pct := func(n uint64) float64 {
			if loads == 0 {
				return 0
			}
			return 100 * float64(n) / float64(loads)
		}
		brk := cl.Breakdown()
		return ThreeCRow{
			Name: prof.Name, Bad: prof.Bad,
			Compulsory: pct(brk.Compulsory),
			Capacity:   pct(brk.Capacity),
			Conflict:   pct(brk.Conflict),
		}
	}
	return consume, row
}

// RunThreeCCtx runs the classification on the parallel engine, one job
// per benchmark: both indexings' classifiers ride its single trace pass.
func RunThreeCCtx(ctx context.Context, cfg exp.Base) (ThreeCResult, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	var res ThreeCResult
	suite, err := suiteFor(cfg)
	if err != nil {
		return res, err
	}
	conv := index.MustNew(index.SchemeModulo, setBits8K, 2, hashInBits)
	ipoly := index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)
	jobs := make([]func(context.Context) ([2]ThreeCRow, error), len(suite))
	for i, prof := range suite {
		jobs[i] = func(c context.Context) ([2]ThreeCRow, error) {
			convFn, convRow := threeC(prof, conv)
			ipolyFn, ipolyRow := threeC(prof, ipoly)
			if _, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nil, convFn, ipolyFn); err != nil {
				return [2]ThreeCRow{}, err
			}
			return [2]ThreeCRow{convRow(), ipolyRow()}, nil
		}
	}
	rows, err := runner.All(ctx, jobs)
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
