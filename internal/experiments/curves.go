package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cache/stackdist"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CurvesConfig configures the whole-design-space miss-ratio curves.
type CurvesConfig struct {
	exp.Base
	// MaxWays is the largest associativity traced per curve family.
	MaxWays int `json:"max_ways" flag:"max-ways" help:"largest associativity per indexing scheme"`
}

// DefaultCurvesConfig returns the standard scale: curves up to 8-way
// for every non-skewed scheme, plus the unbounded fully-associative
// envelope.
func DefaultCurvesConfig() CurvesConfig {
	return CurvesConfig{Base: exp.DefaultBase(), MaxWays: 8}
}

// maxCurveWays bounds max-ways: the engines keep one stack level per
// way for every set of every family, so memory grows with it.
const maxCurveWays = 64

// Validate implements exp.Config.
func (c *CurvesConfig) Validate() error {
	if c.MaxWays < 0 || c.MaxWays > maxCurveWays {
		return fmt.Errorf("max-ways must be in [0, %d] (0 means 8), got %d", maxCurveWays, c.MaxWays)
	}
	return nil
}

// curveSchemes lists the indexing schemes the curves experiment traces
// — the non-skewed families, which have the stack property.  The skewed
// variants have no single nesting order and stay on explicit Grid
// points (see missratio and sweep).
func curveSchemes() []index.Scheme {
	return []index.Scheme{index.SchemeModulo, index.SchemeXOR, index.SchemeIPoly}
}

// curveSetCounts is the set-count ladder each scheme's family spans: 32
// to 1024 sets of 32-byte lines, i.e. 1 KB direct-mapped up to 256 KB
// at 8 ways.  It is a superset of the sweep's conventional design
// points, so sweep cells can be cross-checked against curve cells.
func curveSetCounts() []int { return []int{32, 64, 128, 256, 512, 1024} }

// faCurveSizes is the size grid the unbounded fully-associative curve
// is evaluated on: the distinct total sizes the set-associative
// families cover.
func faCurveSizes() []int64 {
	var out []int64
	for kb := int64(1); kb <= 256; kb *= 2 {
		out = append(out, kb<<10)
	}
	return out
}

// CurvesResult holds suite-average miss-ratio curves: one curve per
// (scheme, ways) over the whole set-count ladder, plus the unbounded
// fully-associative LRU envelope.
type CurvesResult struct {
	// Schemes, SetCounts and MaxWays echo the traced design space.
	Schemes   []index.Scheme
	SetCounts []int
	MaxWays   int
	// Curves[k][w-1] is the suite-average curve of Schemes[k] at w ways.
	Curves [][]stackdist.Curve
	// FA is the suite-average unbounded fully-associative curve (Mattson;
	// allocate-on-write semantics, see stackdist.Mattson).
	FA stackdist.Curve
}

// avgCurves averages per-benchmark curves pointwise with the suite mean
// used by every other experiment.
func avgCurves(per [][]stackdist.Curve) []stackdist.Curve {
	out := make([]stackdist.Curve, len(per[0]))
	for ci := range per[0] {
		c := per[0][ci]
		avg := stackdist.Curve{
			Scheme:      c.Scheme,
			Ways:        c.Ways,
			BlockSize:   c.BlockSize,
			SizesBytes:  append([]int64(nil), c.SizesBytes...),
			ReadMissPct: make([]float64, c.Len()),
			MissPct:     make([]float64, c.Len()),
		}
		vals := make([]float64, len(per))
		for i := range c.SizesBytes {
			for b := range per {
				vals[b] = per[b][ci].ReadMissPct[i]
			}
			avg.ReadMissPct[i] = stats.Mean(vals)
			for b := range per {
				vals[b] = per[b][ci].MissPct[i]
			}
			avg.MissPct[i] = stats.Mean(vals)
		}
		out[ci] = avg
	}
	return out
}

// RunCurvesCtx traces whole miss-ratio curves on the parallel engine,
// one job per benchmark and one trace replay per job: a stack-distance
// Family per scheme (one engine per set count, every associativity up
// to MaxWays read off each) plus an unbounded Mattson engine all
// consume the same chunk stream.  Per-benchmark curves are averaged
// pointwise across the suite.
func RunCurvesCtx(ctx context.Context, cfg CurvesConfig) (CurvesResult, error) {
	cfg = withDefaults(cfg, DefaultCurvesConfig)
	res := CurvesResult{Schemes: curveSchemes(), SetCounts: curveSetCounts(), MaxWays: cfg.MaxWays}
	type benchCurves struct {
		flat []stackdist.Curve // scheme-major: [k*MaxWays + (w-1)]
		fa   stackdist.Curve
	}
	_, perBench, err := forEachProgram(ctx, cfg.Base, func(c context.Context, prof workload.Profile) (benchCurves, error) {
		fams := make([]*stackdist.Family, len(res.Schemes))
		var aux []func(recs []trace.Rec)
		for k, scheme := range res.Schemes {
			fams[k] = stackdist.NewFamily(scheme, res.SetCounts, 32, cfg.MaxWays, hashInBits, false, false)
			// One shardable consumer per per-set-count engine: the
			// three families' engines spread across workers.
			for _, e := range fams[k].Engines() {
				aux = append(aux, func(recs []trace.Rec) { e.AccessStream(recs) })
			}
		}
		mat := stackdist.NewMattson(32)
		aux = append(aux, func(recs []trace.Rec) { mat.AccessStream(recs) })
		if _, err := runGrid(c, prof, cfg.Seed, cfg.Instructions, nil, aux...); err != nil {
			return benchCurves{}, err
		}
		var bc benchCurves
		for _, f := range fams {
			bc.flat = append(bc.flat, f.Curves()...)
		}
		bc.fa = mat.Curve(faCurveSizes())
		return bc, nil
	})
	if err != nil {
		return res, err
	}
	flats := make([][]stackdist.Curve, len(perBench))
	fas := make([][]stackdist.Curve, len(perBench))
	for b, bc := range perBench {
		flats[b] = bc.flat
		fas[b] = []stackdist.Curve{bc.fa}
	}
	flat := avgCurves(flats)
	res.FA = avgCurves(fas)[0]
	res.Curves = make([][]stackdist.Curve, len(res.Schemes))
	for k := range res.Schemes {
		res.Curves[k] = flat[k*cfg.MaxWays : (k+1)*cfg.MaxWays]
	}
	return res, nil
}

// At returns the suite-average load miss % at one (scheme, ways, sets)
// point of the traced space.
func (res CurvesResult) At(scheme index.Scheme, ways, sets int) (float64, bool) {
	k := slices.Index(res.Schemes, scheme)
	if k < 0 || ways < 1 || ways > res.MaxWays {
		return 0, false
	}
	c := res.Curves[k][ways-1]
	for i, sc := range res.SetCounts {
		if sc == sets {
			return c.ReadMissPct[i], true
		}
	}
	return 0, false
}

// report converts the curve set: a golden-pinnable table of load miss
// ratios at the low associativities, one series per (scheme, ways)
// curve, and the fully-associative envelope.
func (res CurvesResult) report(CurvesConfig) *exp.Report {
	rep := &exp.Report{}
	tableWays := []int{1, 2, 4}
	cols := []exp.Column{exp.StrCol("sets")}
	for _, s := range res.Schemes {
		for _, w := range tableWays {
			if w > res.MaxWays {
				continue
			}
			cols = append(cols, exp.FloatCol(fmt.Sprintf("%s w%d", s, w), ""))
		}
	}
	t := exp.NewTable("curves",
		"Miss-ratio curves: suite-average load miss % per indexing scheme (32B lines)\nEvery cell of a scheme column comes from ONE stack-distance pass per set count.",
		cols...)
	for i, sets := range res.SetCounts {
		cells := []any{fmt.Sprintf("%d", sets)}
		for k := range res.Schemes {
			for _, w := range tableWays {
				if w > res.MaxWays {
					continue
				}
				cells = append(cells, res.Curves[k][w-1].ReadMissPct[i])
			}
		}
		t.AddRow(cells...)
	}
	rep.AddTable(t)
	fa := exp.NewTable("fa", "Unbounded fully-associative LRU envelope (Mattson; allocate-on-write)",
		exp.StrCol("size"), exp.FloatCol("load miss %", ""), exp.FloatCol("miss %", ""))
	for i, sz := range res.FA.SizesBytes {
		fa.AddRow(fmt.Sprintf("%dKB", sz>>10), res.FA.ReadMissPct[i], res.FA.MissPct[i])
	}
	rep.AddTable(fa)
	for k, s := range res.Schemes {
		for w := 1; w <= res.MaxWays; w++ {
			c := res.Curves[k][w-1]
			ser := exp.Series{
				Name:   fmt.Sprintf("%s w=%d", s, w),
				XLabel: "size (bytes)", YLabel: "load miss %",
			}
			for i := range c.SizesBytes {
				ser.X = append(ser.X, float64(c.SizesBytes[i]))
				ser.Y = append(ser.Y, c.ReadMissPct[i])
			}
			rep.AddSeries(ser)
		}
	}
	faSer := exp.Series{Name: "fa", XLabel: "size (bytes)", YLabel: "load miss %"}
	for i := range res.FA.SizesBytes {
		faSer.X = append(faSer.X, float64(res.FA.SizesBytes[i]))
		faSer.Y = append(faSer.Y, res.FA.ReadMissPct[i])
	}
	rep.AddSeries(faSer)
	rep.Notef("Curves span %d..%d sets x 1..%d ways per scheme: %d design points from %d stack passes per benchmark.",
		res.SetCounts[0], res.SetCounts[len(res.SetCounts)-1], res.MaxWays,
		len(res.SetCounts)*res.MaxWays*len(res.Schemes), len(res.SetCounts)*len(res.Schemes))
	return rep
}
