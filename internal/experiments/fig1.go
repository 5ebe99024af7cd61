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

// Fig1Config configures the Figure 1 stride sweep.
type Fig1Config struct {
	exp.Base
	// Rounds of the vector walk per stride (first round is warm-up).
	Rounds int `flag:"rounds" help:"vector walk rounds per stride (first is warm-up)"`
	// MaxStride bounds the stride sweep (exclusive).
	MaxStride int `flag:"maxstride" help:"stride sweep bound, exclusive"`
}

// DefaultFig1Config returns the paper scale: the full 1..4095 sweep.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{Base: exp.DefaultBase(), Rounds: defaultRounds, MaxStride: defaultMaxStride}
}

// Validate implements exp.Config.  The first round is the warm-up, so
// one round measures nothing, and the sweep covers strides
// 1..maxstride-1, so a bound of 1 sweeps none.
func (c *Fig1Config) Validate() error {
	if c.Rounds < 0 || c.Rounds == 1 {
		return fmt.Errorf("rounds must be 0 (the default) or at least 2, got %d", c.Rounds)
	}
	if c.Rounds > maxRounds {
		return fmt.Errorf("rounds must be at most %d, got %d", maxRounds, c.Rounds)
	}
	return validateMaxStride(c.MaxStride)
}

// Fig1Result reproduces Figure 1: the frequency distribution of miss
// ratios over all strides for the four indexing schemes.
type Fig1Result struct {
	// Histograms maps scheme -> 10-bin miss-ratio histogram (bins 0.1
	// ... 1.0, log-frequency presentation).
	Histograms map[index.Scheme]*stats.Histogram
	// Pathological counts strides with miss ratio > 50 % per scheme (the
	// paper reports > 6 % of strides pathological for a2 and a2-Hx-Sk,
	// none for a2-Hp-Sk).
	Pathological map[index.Scheme]int
	// Strides is the number of strides swept.
	Strides int
}

// fig1Schemes lists the four Figure 1 placement schemes in presentation
// order (also the job-production order, so sweeps are deterministic).
func fig1Schemes() []index.Scheme {
	return []index.Scheme{
		index.SchemeModulo, index.SchemeXORSk, index.SchemeIPoly, index.SchemeIPolySk,
	}
}

// fig1Placement builds one Figure 1 placement.  The largest strides put
// the kernel's footprint at ~2 MB, so the polynomial hash must see every
// block-address bit the walk touches (17 bits here); truncating at the
// paper's 19 *address* bits would introduce aliasing artifacts that have
// nothing to do with the placement function.  XOR folding inherently
// consumes 2m = 14 bits.
func fig1Placement(s index.Scheme) index.Placement {
	return index.MustNew(s, setBits8K, 2, 17)
}

// fig1Chunk is the stride-sweep job granularity: big enough that grid
// construction amortises, small enough that a 4-worker pool stays busy
// on the full 1..4095 sweep (16 chunks, each advancing all 4 schemes).
const fig1Chunk = 256

// fig1Spec builds the four schemes' 8 KB 2-way configurations in
// fig1Schemes presentation order, as a single-pass grid spec.
func fig1Spec() cache.GridSpec {
	schemes := fig1Schemes()
	spec := make(cache.GridSpec, len(schemes))
	for k, s := range schemes {
		spec[k] = cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement: fig1Placement(s), WriteAllocate: false,
		}
	}
	return spec
}

// fig1GridStride measures one stride's miss ratio under every scheme in
// one pass: the kernel's records are materialized once into recs (a
// reusable scratch buffer, grown as needed) and replayed through the
// reset grid, so the per-stride trace is generated once instead of once
// per scheme.  The warm-up round is excluded from the measured ratios.
func fig1GridStride(g *cache.Grid, stride uint64, rounds int, mrs []float64, recs []trace.Rec) []trace.Rec {
	const elems = 64
	g.Reset()
	ss := workload.NewStrideStream(0, stride*8, elems, rounds)
	if total := ss.Total(); cap(recs) < total {
		recs = make([]trace.Rec, total)
	} else {
		recs = recs[:total]
	}
	n, _ := ss.ReadChunk(recs)
	recs = recs[:n]
	g.AccessStream(recs[:elems])
	g.ResetStats()
	g.AccessStream(recs[elems:])
	for k := range mrs {
		mrs[k] = g.StatsAt(k).MissRatio()
	}
	return recs
}

// fig1Partial is one job's contribution: a chunk of strides, every
// scheme, in fig1Schemes order.
type fig1Partial struct {
	hists []*stats.Histogram
	patho []int
}

// newFig1Partial allocates an empty partial for nsch schemes.
func newFig1Partial(nsch int) fig1Partial {
	p := fig1Partial{hists: make([]*stats.Histogram, nsch), patho: make([]int, nsch)}
	for k := range p.hists {
		p.hists[k] = stats.NewHistogram(10)
	}
	return p
}

// fig1Jobs decomposes the sweep into stride-chunk jobs; each job drives
// all four schemes through one grid, one kernel materialization per
// stride.
func fig1Jobs(cfg Fig1Config) []func(context.Context) (fig1Partial, error) {
	spec := fig1Spec()
	nsch := len(spec)
	var jobs []func(context.Context) (fig1Partial, error)
	for lo := 1; lo < cfg.MaxStride; lo += fig1Chunk {
		hi := lo + fig1Chunk
		if hi > cfg.MaxStride {
			hi = cfg.MaxStride
		}
		jobs = append(jobs, func(c context.Context) (fig1Partial, error) {
			p := newFig1Partial(nsch)
			g := cache.NewGrid(spec)
			mrs := make([]float64, nsch)
			var recs []trace.Rec
			for s := lo; s < hi; s++ {
				if c.Err() != nil {
					return p, c.Err()
				}
				recs = fig1GridStride(g, uint64(s), cfg.Rounds, mrs, recs)
				for k, mr := range mrs {
					p.hists[k].Add(mr)
					if mr > 0.5 {
						p.patho[k]++
					}
				}
			}
			return p, nil
		})
	}
	return jobs
}

// RunFig1Ctx sweeps element strides 1..MaxStride-1 of the 64×8-byte
// vector walk through 8 KB 2-way caches differing only in placement
// function.  The sweep runs on the parallel engine and aborts early
// when ctx is cancelled.
func RunFig1Ctx(ctx context.Context, cfg Fig1Config) (Fig1Result, error) {
	cfg = withDefaults(cfg, DefaultFig1Config)
	res := Fig1Result{
		Histograms:   make(map[index.Scheme]*stats.Histogram),
		Pathological: make(map[index.Scheme]int),
		Strides:      cfg.MaxStride - 1,
	}
	parts, err := runner.All(ctx, fig1Jobs(cfg))
	if err != nil {
		return res, err
	}
	schemes := fig1Schemes()
	for _, p := range parts {
		for k, scheme := range schemes {
			if h, ok := res.Histograms[scheme]; ok {
				h.Merge(p.hists[k])
			} else {
				res.Histograms[scheme] = p.hists[k]
			}
			res.Pathological[scheme] += p.patho[k]
		}
	}
	return res, nil
}

// PathologicalFraction returns the fraction of strides with miss ratio
// above 50 % for the scheme.
func (r Fig1Result) PathologicalFraction(s index.Scheme) float64 {
	if r.Strides == 0 {
		return 0
	}
	return float64(r.Pathological[s]) / float64(r.Strides)
}

// report converts the result into the uniform report model: one
// histogram series per scheme plus the pathological-stride table.
func (r Fig1Result) report(Fig1Config) *exp.Report {
	rep := &exp.Report{}
	for _, s := range fig1Schemes() {
		h := r.Histograms[s]
		if h == nil {
			continue
		}
		bins := h.Bins()
		series := exp.Series{
			Name: "hist/" + string(s), XLabel: "miss<", YLabel: "strides",
			X: make([]float64, len(bins)), Y: make([]float64, len(bins)),
		}
		for i, c := range bins {
			series.X[i] = h.UpperEdge(i)
			series.Y[i] = float64(c)
		}
		rep.AddSeries(series)
	}
	t := exp.NewTable("pathological", "Pathological strides (miss ratio > 50%)",
		exp.StrCol("scheme"), exp.IntCol("pathological"), exp.IntCol("strides"),
		exp.FloatCol("fraction %", "%.2f"))
	for _, s := range fig1Schemes() {
		if _, ok := r.Histograms[s]; !ok {
			continue
		}
		t.AddRow(string(s), r.Pathological[s], r.Strides, 100*r.PathologicalFraction(s))
	}
	rep.AddTable(t)
	rep.Notef("(8KB, 2-way, 32B lines; 64-element vector, %d element strides swept)", r.Strides)
	return rep
}
