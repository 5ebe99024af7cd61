package experiments

import (
	"context"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/index"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table2Row is one benchmark's row of the paper's Table 2: IPC and load
// miss ratio across six processor/cache configurations.
type Table2Row struct {
	Name string
	FP   bool
	Bad  bool

	// Conventional indexing.
	C16IPC, C16Miss  float64 // 16 KB, no prediction
	C8IPC, C8PredIPC float64 // 8 KB without / with address prediction
	C8Miss           float64
	// I-Poly indexing (skewed), 8 KB.
	IPolyIPC, IPolyMiss  float64 // XOR gates not on the critical path
	InCPIPC, InCPPredIPC float64 // XOR on critical path, without/with pred
}

// Table2Result holds all rows plus the paper's three average rows.
type Table2Result struct {
	Rows []Table2Row
	// IntAvg, FPAvg, Combined mirror the paper's average rows (geometric
	// mean for IPC, arithmetic for miss ratios).
	IntAvg, FPAvg, Combined Table2Row
}

// table2Configs builds the six configurations of Table 2.
func table2Configs() map[string]cpu.Config {
	ipoly := index.MustNew(index.SchemeIPolySk, setBits8K, 2, hashInBits)
	conv16 := index.NewModulo(setBits16K)
	cfgs := map[string]cpu.Config{
		"c16":       cpu.DefaultConfig(cpu.PaperCache(16<<10, conv16)),
		"c8":        cpu.DefaultConfig(cpu.PaperCache(8<<10, nil)),
		"c8pred":    cpu.DefaultConfig(cpu.PaperCache(8<<10, nil)),
		"ipoly":     cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly)),
		"incp":      cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly)),
		"incp+pred": cpu.DefaultConfig(cpu.PaperCache(8<<10, ipoly)),
	}
	c := cfgs["c8pred"]
	c.AddrPred = true
	cfgs["c8pred"] = c
	c = cfgs["incp"]
	c.XorInCP = true
	cfgs["incp"] = c
	c = cfgs["incp+pred"]
	c.XorInCP = true
	c.AddrPred = true
	cfgs["incp+pred"] = c
	return cfgs
}

// table2ConfigOrder is the fixed column order of Table 2's six
// processor/cache configurations (also the job-production order).
func table2ConfigOrder() []string {
	return []string{"c16", "c8", "c8pred", "ipoly", "incp", "incp+pred"}
}

// RunTable2Ctx runs the 18-benchmark × 6-configuration grid on the
// parallel engine, one job per grid cell (each simulation owns its
// state; the shared placement functions are immutable after
// construction).  Rows come back in suite order so the output is
// deterministic at any worker count.
func RunTable2Ctx(ctx context.Context, cfg exp.Base) (Table2Result, error) {
	cfg = withDefaults(cfg, exp.DefaultBase)
	cfgs := table2Configs()
	cfgOrder := table2ConfigOrder()
	suite := workload.Suite()

	var jobs []func(context.Context) (cpu.Result, error)
	for _, prof := range suite {
		for _, key := range cfgOrder {
			coreCfg := cfgs[key]
			jobs = append(jobs, func(ctx context.Context) (cpu.Result, error) {
				return runCore(ctx, prof, cfg.Seed, cfg.Instructions, coreCfg)
			})
		}
	}
	var res Table2Result
	cells, err := runner.All(ctx, jobs)
	if err != nil {
		return res, err
	}
	miss := func(r cpu.Result) float64 { return 100 * r.MissRatio() }
	rows := make([]Table2Row, len(suite))
	for i, prof := range suite {
		c := cells[i*len(cfgOrder) : (i+1)*len(cfgOrder)]
		rows[i] = Table2Row{
			Name: prof.Name, FP: prof.FP, Bad: prof.Bad,
			C16IPC: c[0].IPC(), C16Miss: miss(c[0]),
			C8IPC: c[1].IPC(), C8Miss: miss(c[1]),
			C8PredIPC: c[2].IPC(),
			IPolyIPC:  c[3].IPC(), IPolyMiss: miss(c[3]),
			InCPIPC:     c[4].IPC(),
			InCPPredIPC: c[5].IPC(),
		}
	}
	res.Rows = rows
	res.IntAvg = average("Int average", res.Rows, func(r Table2Row) bool { return !r.FP })
	res.FPAvg = average("Fp average", res.Rows, func(r Table2Row) bool { return r.FP })
	res.Combined = average("Combined", res.Rows, func(Table2Row) bool { return true })
	return res, nil
}

// average computes the paper-style average row over rows passing keep:
// geometric means for IPC columns, arithmetic means for miss columns.
func average(name string, rows []Table2Row, keep func(Table2Row) bool) Table2Row {
	var ipcCols [6][]float64
	var missCols [3][]float64
	for _, r := range rows {
		if !keep(r) {
			continue
		}
		for i, v := range []float64{r.C16IPC, r.C8IPC, r.C8PredIPC, r.IPolyIPC, r.InCPIPC, r.InCPPredIPC} {
			ipcCols[i] = append(ipcCols[i], v)
		}
		for i, v := range []float64{r.C16Miss, r.C8Miss, r.IPolyMiss} {
			missCols[i] = append(missCols[i], v)
		}
	}
	return Table2Row{
		Name:        name,
		C16IPC:      stats.GeoMean(ipcCols[0]),
		C8IPC:       stats.GeoMean(ipcCols[1]),
		C8PredIPC:   stats.GeoMean(ipcCols[2]),
		IPolyIPC:    stats.GeoMean(ipcCols[3]),
		InCPIPC:     stats.GeoMean(ipcCols[4]),
		InCPPredIPC: stats.GeoMean(ipcCols[5]),
		C16Miss:     stats.Mean(missCols[0]),
		C8Miss:      stats.Mean(missCols[1]),
		IPolyMiss:   stats.Mean(missCols[2]),
	}
}

// table2Columns declares the shared Table 2/Table 3 report columns.
func table2Columns() []exp.Column {
	return []exp.Column{
		exp.StrCol("bench"),
		exp.FloatCol("16K IPC", ""), exp.FloatCol("16K miss", ""),
		exp.FloatCol("8K IPC", ""), exp.FloatCol("8K+pred IPC", ""), exp.FloatCol("8K miss", ""),
		exp.FloatCol("Hp IPC", ""), exp.FloatCol("Hp miss", ""),
		exp.FloatCol("Hp-CP IPC", ""), exp.FloatCol("Hp-CP+pred IPC", ""),
	}
}

func addTable2Row(t *exp.Table, r Table2Row) {
	t.AddRow(r.Name,
		r.C16IPC, r.C16Miss,
		r.C8IPC, r.C8PredIPC, r.C8Miss,
		r.IPolyIPC, r.IPolyMiss,
		r.InCPIPC, r.InCPPredIPC)
}

// report converts the full Table 2 with average rows.
func (res Table2Result) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
	t := exp.NewTable("table2",
		"Table 2: IPC and load miss ratio (miss in %).\nConventional (16K / 8K) vs skewed I-Poly (Hp; CP = XOR on critical path).",
		table2Columns()...)
	for _, r := range res.Rows {
		addTable2Row(t, r)
	}
	addTable2Row(t, res.IntAvg)
	addTable2Row(t, res.FPAvg)
	addTable2Row(t, res.Combined)
	rep.AddTable(t)
	return rep
}

// Table3Result is the paper's Table 3: the three high-conflict programs
// plus bad/good average rows.
type Table3Result struct {
	Rows    []Table2Row // tomcatv, swim, wave5
	BadAvg  Table2Row
	GoodAvg Table2Row
}

// RunTable3Ctx derives Table 3 from a Table 2 run (the paper's Table 3
// is a re-presentation of the same simulations, which runCore runs once
// per process: after table2, table3 simulates nothing).
func RunTable3Ctx(ctx context.Context, cfg exp.Base) (Table3Result, error) {
	t2, err := RunTable2Ctx(ctx, cfg)
	if err != nil {
		return Table3Result{}, err
	}
	return DeriveTable3(t2), nil
}

// DeriveTable3 splits an existing Table 2 result into the Table 3 view.
func DeriveTable3(t2 Table2Result) Table3Result {
	var res Table3Result
	for _, r := range t2.Rows {
		if r.Bad {
			res.Rows = append(res.Rows, r)
		}
	}
	res.BadAvg = average("Average-bad", t2.Rows, func(r Table2Row) bool { return r.Bad })
	res.GoodAvg = average("Average-good", t2.Rows, func(r Table2Row) bool { return !r.Bad })
	return res
}

// report converts Table 3.
func (res Table3Result) report(exp.Base) *exp.Report {
	rep := &exp.Report{}
	t := exp.NewTable("table3",
		"Table 3: the high-conflict programs and bad/good averages.",
		table2Columns()...)
	for _, r := range res.Rows {
		addTable2Row(t, r)
	}
	addTable2Row(t, res.BadAvg)
	addTable2Row(t, res.GoodAvg)
	rep.AddTable(t)
	return rep
}
