package experiments

import (
	"context"
	"fmt"

	"repro/internal/banks"
	"repro/internal/exp"
	"repro/internal/gf2"
	"repro/internal/runner"
	"repro/internal/stats"
)

// InterleaveConfig configures the interleaved-memory lineage sweep.
type InterleaveConfig struct {
	exp.Base
	// MaxStride bounds the stride sweep (exclusive).
	MaxStride int `flag:"maxstride" help:"stride sweep bound, exclusive"`
}

// DefaultInterleaveConfig returns the full stride sweep.
func DefaultInterleaveConfig() InterleaveConfig {
	return InterleaveConfig{Base: exp.DefaultBase(), MaxStride: defaultMaxStride}
}

func (c InterleaveConfig) normalize() InterleaveConfig {
	c.Base.Normalize()
	if c.MaxStride == 0 {
		c.MaxStride = defaultMaxStride
	}
	return c
}

// Validate implements exp.Config.
func (c *InterleaveConfig) Validate() error {
	// The sweep covers strides 1..maxstride-1, so 1 would sweep none.
	if c.MaxStride < 0 || c.MaxStride == 1 {
		return fmt.Errorf("maxstride must be 0 (the default) or at least 2, got %d", c.MaxStride)
	}
	return nil
}

// InterleaveResult reproduces the interleaved-memory background of §2.1:
// the bank-selection schemes the cache index functions descend from
// (conventional modulo, Lawrie-Vora prime, Frailong XOR, Rau I-Poly),
// compared by achieved bandwidth across a stride sweep on a 16-bank
// memory with 4-cycle banks.
type InterleaveResult struct {
	Schemes []string
	// MeanBW[s] is the mean bandwidth over the sweep; WorstBW the min;
	// Degraded[s] counts strides with bandwidth < 0.5.
	MeanBW   []float64
	WorstBW  []float64
	Degraded []int
	Strides  int
}

// RunInterleaveCtx sweeps strides 1..MaxStride-1 (element strides over
// 8-byte words) on the parallel engine, one job per selector.
func RunInterleaveCtx(ctx context.Context, cfg InterleaveConfig) (InterleaveResult, error) {
	cfg = cfg.normalize()
	if err := rejectTraceFile("interleave", cfg.Base); err != nil {
		return InterleaveResult{}, err
	}
	type mk struct {
		name string
		sel  func() banks.Selector
	}
	poly := gf2.Irreducibles(4, 1)[0]
	selectors := []mk{
		{"modulo-16", func() banks.Selector { return banks.NewModulo(4) }},
		{"prime-17", func() banks.Selector { return banks.NewPrime(17) }},
		{"xor-16", func() banks.Selector { return banks.NewXOR(4) }},
		{"ipoly-16", func() banks.Selector { return banks.NewIPoly(poly, 20) }},
	}
	type bankCell struct {
		mean, worst float64
		degraded    int
	}
	res := InterleaveResult{Strides: cfg.MaxStride - 1}
	jobs := make([]runner.Job[bankCell], len(selectors))
	for i, s := range selectors {
		jobs[i] = runner.KeyedJob("interleave/"+s.name,
			func(c context.Context) (bankCell, error) {
				var bws []float64
				degraded := 0
				for stride := uint64(1); stride < uint64(cfg.MaxStride); stride++ {
					if stride&0xFF == 0 && c.Err() != nil {
						return bankCell{}, c.Err()
					}
					m := banks.NewMemory(s.sel(), 4)
					for i := uint64(0); i < 512; i++ {
						m.Access(i * stride)
					}
					bw := m.Bandwidth()
					bws = append(bws, bw)
					if bw < 0.5 {
						degraded++
					}
				}
				return bankCell{mean: stats.Mean(bws), worst: stats.Min(bws), degraded: degraded}, nil
			})
	}
	cells, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	for i, s := range selectors {
		res.Schemes = append(res.Schemes, s.name)
		res.MeanBW = append(res.MeanBW, cells[i].mean)
		res.WorstBW = append(res.WorstBW, cells[i].worst)
		res.Degraded = append(res.Degraded, cells[i].degraded)
	}
	return res, nil
}

// report converts the comparison.
func (res InterleaveResult) report(cfg InterleaveConfig) *exp.Report {
	rep := &exp.Report{}
	rep.SetMeta(cfg.Base)
	t := exp.NewTable("interleave",
		fmt.Sprintf("Interleaved-memory lineage (§2.1): 16 banks, 4-cycle busy time,\nbandwidth (words/cycle) over %d strides", res.Strides),
		exp.StrCol("selector"), exp.FloatCol("mean BW", "%.3f"), exp.FloatCol("worst BW", "%.3f"),
		exp.IntCol("degraded"), exp.IntCol("strides"))
	for i, s := range res.Schemes {
		t.AddRow(s, res.MeanBW[i], res.WorstBW[i], res.Degraded[i], res.Strides)
	}
	rep.AddTable(t)
	rep.Notef("The polynomial selector inherits the Cydra-5 stride insensitivity the\n" +
		"paper imports into cache indexing; modulo degrades on power-of-two\n" +
		"strides, prime on multiples of its modulus.")
	return rep
}
