package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/index"
)

// smallBase returns shared options scaled for unit tests.
func smallBase() exp.Base {
	return exp.Base{Instructions: 40_000, Seed: 7}
}

// runOK executes a typed driver and fails the test on error.
func runOK[C any, R any](t *testing.T, run func(context.Context, C) (R, error), cfg C) R {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigNormalize(t *testing.T) {
	var c Fig1Config
	n := c.normalize()
	if n.Instructions == 0 || n.Seed == 0 || n.Rounds == 0 || n.MaxStride == 0 {
		t.Errorf("normalize left zero fields: %+v", n)
	}
	// Explicit values survive.
	c = Fig1Config{Base: exp.Base{Instructions: 5}, Rounds: 3}
	n = c.normalize()
	if n.Instructions != 5 || n.Rounds != 3 {
		t.Error("normalize clobbered explicit values")
	}
	// Defaults match the registered spec.
	d := DefaultFig1Config()
	if d.Rounds != defaultRounds || d.MaxStride != defaultMaxStride {
		t.Errorf("defaults: %+v", d)
	}
}

// TestValidateRejectsCrashingParameters pins the domain checks for
// values that would otherwise panic or exhaust memory inside a runner
// job: Validate rejects them with a reason, which is what makes the CLI
// exit 2 and serve answer 400.
func TestValidateRejectsCrashingParameters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     exp.Config
		wantErr string // "" means valid
	}{
		{"curves default", &CurvesConfig{}, ""},
		{"curves 1 way", &CurvesConfig{MaxWays: 1}, ""},
		{"curves 64 ways", &CurvesConfig{MaxWays: 64}, ""},
		{"curves -1 ways", &CurvesConfig{MaxWays: -1}, "max-ways must be in [0, 64]"},
		{"curves 65 ways", &CurvesConfig{MaxWays: 65}, "got 65"},
		{"curves 2^40 ways", &CurvesConfig{MaxWays: 1 << 40}, "got 1099511627776"},
		{"interleave default", &InterleaveConfig{}, ""},
		{"interleave maxstride 2", &InterleaveConfig{MaxStride: 2}, ""},
		{"interleave maxstride 1", &InterleaveConfig{MaxStride: 1}, "at least 2, got 1"},
		{"interleave maxstride -1", &InterleaveConfig{MaxStride: -1}, "got -1"},
		{"fig1 default", &Fig1Config{}, ""},
		{"fig1 2 rounds", &Fig1Config{Rounds: 2, MaxStride: 2}, ""},
		{"fig1 1 round", &Fig1Config{Rounds: 1}, "rounds must be 0 (the default) or at least 2, got 1"},
		{"fig1 maxstride 1", &Fig1Config{MaxStride: 1}, "maxstride must be 0 (the default) or at least 2, got 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	// Full stride sweep (the claims are about the 1..4095 range).
	cfg := Fig1Config{Base: smallBase(), Rounds: 9, MaxStride: 4096}
	res := runOK(t, RunFig1Ctx, cfg)
	if len(res.Histograms) != 4 {
		t.Fatalf("schemes = %d", len(res.Histograms))
	}
	// Headline claims: the conventional function is pathological on > 6 %
	// of strides; skewed I-Poly on none; the XOR-based functions fall in
	// between.
	conv := res.PathologicalFraction(index.SchemeModulo)
	xsk := res.PathologicalFraction(index.SchemeXORSk)
	ipsk := res.PathologicalFraction(index.SchemeIPolySk)
	if conv < 0.06 {
		t.Errorf("conventional pathological fraction %.4f, paper reports > 6%%", conv)
	}
	if ipsk != 0 {
		t.Errorf("skewed I-Poly has %d pathological strides, paper says none",
			res.Pathological[index.SchemeIPolySk])
	}
	if xsk > conv {
		t.Errorf("skewed XOR (%.4f) should not be worse than conventional (%.4f)", xsk, conv)
	}
	if res.Pathological[index.SchemeXORSk] < res.Pathological[index.SchemeIPolySk] {
		t.Error("skewed XOR should not beat skewed I-Poly on pathological strides")
	}
	// Every stride is counted exactly once per scheme.
	for s, h := range res.Histograms {
		if h.Count() != res.Strides {
			t.Errorf("%s histogram holds %d samples, want %d", s, h.Count(), res.Strides)
		}
	}
	out := res.report(cfg.normalize()).RenderString()
	for _, want := range []string{"a2-Hp-Sk", "Pathological"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	cfg := Table2Config{Base: smallBase()}
	res := runOK(t, RunTable2Ctx, cfg)
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	t3 := DeriveTable3(res)
	if len(t3.Rows) != 3 {
		t.Fatalf("table 3 rows = %d", len(t3.Rows))
	}
	bad, good := t3.BadAvg, t3.GoodAvg

	// Shape assertions from the paper's conclusions:
	// 1. Bad programs gain large IPC from I-Poly even with the XOR on the
	//    critical path (paper: +27%).
	if gain := bad.InCPIPC / bad.C8IPC; gain < 1.15 {
		t.Errorf("bad-program XOR-in-CP IPC gain %.3f, want > 1.15", gain)
	}
	// 2. With address prediction the gain grows (paper: +33%).
	if bad.InCPPredIPC < bad.InCPIPC {
		t.Errorf("prediction should not hurt: %.3f < %.3f", bad.InCPPredIPC, bad.InCPIPC)
	}
	// 3. I-Poly beats doubling the cache on bad programs (paper: +16%
	//    over 16 KB conventional).
	if bad.InCPPredIPC < bad.C16IPC {
		t.Errorf("I-Poly+pred %.3f should beat 16KB conventional %.3f on bad programs",
			bad.InCPPredIPC, bad.C16IPC)
	}
	// 4. Good programs see only a small IPC loss with XOR in CP
	//    (paper: -1.7% with prediction).
	if loss := 1 - good.InCPPredIPC/good.IPolyIPC; loss > 0.05 {
		t.Errorf("good-program loss %.3f too large", loss)
	}
	// 5. Bad-program miss ratio collapses under I-Poly.
	if bad.IPolyMiss > bad.C8Miss/2 {
		t.Errorf("bad miss: ipoly %.2f vs conv %.2f — expected >2x reduction",
			bad.IPolyMiss, bad.C8Miss)
	}
	// 6. Good-program miss ratios barely move.
	diff := good.IPolyMiss - good.C8Miss
	if diff < 0 {
		diff = -diff
	}
	if diff > 3 {
		t.Errorf("good miss moved %.2f points under I-Poly", diff)
	}

	out := res.report(cfg.normalize()).RenderString()
	if !strings.Contains(out, "tomcatv") || !strings.Contains(out, "Combined") {
		t.Error("table 2 render incomplete")
	}
	t3out := t3.report(Table3Config{Base: cfg.Base}.normalize()).RenderString()
	if !strings.Contains(t3out, "Average-bad") {
		t.Error("table 3 render incomplete")
	}
}

func TestHolesMatchesModel(t *testing.T) {
	cfg := HolesConfig{Base: smallBase()}
	res := runOK(t, RunHolesCtx, cfg)
	if len(res.Sweep) == 0 {
		t.Fatal("empty sweep")
	}
	for _, row := range res.Sweep {
		if row.Ratio < 16 {
			continue // paper: the model is accurate for ratios >= 16
		}
		if row.L2Misses < 1000 {
			continue
		}
		lo, hi := row.ModelPH*0.5, row.ModelPH*1.5
		if row.Measured < lo || row.Measured > hi {
			t.Errorf("L2 %dKB: measured %.4f outside [%.4f, %.4f] around model",
				row.L2KB, row.Measured, lo, hi)
		}
	}
	// Suite hole rates are tiny (paper: average < 0.1%, max 1.2%); allow
	// slack for our synthetic traces.
	var sum float64
	for _, r := range res.SuiteRates {
		sum += r
		if r > 0.05 {
			t.Errorf("a benchmark's hole rate %.4f is not small", r)
		}
	}
	if avg := sum / float64(len(res.SuiteRates)); avg > 0.02 {
		t.Errorf("suite average hole rate %.4f too large", avg)
	}
	if !strings.Contains(res.report(cfg.normalize()).RenderString(), "model P_H") {
		t.Error("render incomplete")
	}
}

func TestOrgsOrdering(t *testing.T) {
	cfg := OrgsConfig{Base: smallBase()}
	res := runOK(t, RunOrgsCtx, cfg)
	if len(res.Bench) != 18 {
		t.Fatalf("benches = %d", len(res.Bench))
	}
	get := func(name string) float64 {
		for i, n := range res.Orgs {
			if n == name {
				return res.Avg[i]
			}
		}
		t.Fatalf("org %q missing", name)
		return 0
	}
	dm := get("direct-mapped")
	conv := get("2-way")
	ipoly := get("2-way I-Poly-Sk")
	fa := get("fully-assoc")
	// Paper's ordering: DM worst, I-Poly near FA, conventional in between.
	if !(dm > conv && conv > ipoly) {
		t.Errorf("ordering violated: dm %.2f, conv %.2f, ipoly %.2f", dm, conv, ipoly)
	}
	if ipoly > fa*1.35+1 {
		t.Errorf("I-Poly %.2f not close to fully-associative %.2f", ipoly, fa)
	}
	if !strings.Contains(res.report(cfg.normalize()).RenderString(), "Headline") {
		t.Error("render incomplete")
	}
}

func TestStdDevReduction(t *testing.T) {
	cfg := StdDevConfig{Base: smallBase()}
	res := runOK(t, RunStdDevCtx, cfg)
	// The paper's predictability claim: the spread collapses.
	if res.IPolyStdDev >= res.ConvStdDev/2 {
		t.Errorf("stddev: conv %.2f -> ipoly %.2f; expected >2x reduction",
			res.ConvStdDev, res.IPolyStdDev)
	}
	if !strings.Contains(res.report(cfg.normalize()).RenderString(), "stddev") {
		t.Error("render incomplete")
	}
}

func TestColAssocFirstProbeRate(t *testing.T) {
	cfg := ColAssocConfig{Base: smallBase()}
	res := runOK(t, RunColAssocCtx, cfg)
	var sum float64
	for _, r := range res.FirstProbeRate {
		sum += r
	}
	avg := sum / float64(len(res.FirstProbeRate))
	if avg < 0.75 {
		t.Errorf("mean first-probe hit rate %.3f; paper reports ~0.9", avg)
	}
	// Swapping must not lose to plain hash-rehash on average.
	var swap, noswap float64
	for i := range res.MissRatio {
		swap += res.MissRatio[i]
		noswap += res.NoSwapMissRatio[i]
	}
	if swap > noswap*1.1 {
		t.Errorf("column-associative (%.2f) much worse than hash-rehash (%.2f)", swap, noswap)
	}
	if !strings.Contains(res.report(cfg.normalize()).RenderString(), "first-probe") {
		t.Error("render incomplete")
	}
}

func TestAblations(t *testing.T) {
	base := smallBase()
	base.Instructions = 25_000
	cfg := AblateConfig{Base: base}
	res := runOK(t, RunAblateCtx, cfg)
	// Skewed I-Poly should not lose badly to unskewed.
	if res.SkewedMiss > res.UnskewedMiss*1.2+1 {
		t.Errorf("skewed %.2f much worse than unskewed %.2f", res.SkewedMiss, res.UnskewedMiss)
	}
	// More hashed bits must not be dramatically worse than fewer.
	first := res.VBitsMiss[0]
	last := res.VBitsMiss[len(res.VBitsMiss)-1]
	if last > first*1.5+1 {
		t.Errorf("more hash bits hurt: %.2f -> %.2f", first, last)
	}
	// MSHR scaling: 8 MSHRs should beat 1 on a miss-heavy program.
	if res.MSHRIPC[3] <= res.MSHRIPC[0] {
		t.Errorf("8 MSHRs (%.3f) did not beat 1 (%.3f)", res.MSHRIPC[3], res.MSHRIPC[0])
	}
	if !strings.Contains(res.report(cfg.normalize()).RenderString(), "ablation") {
		t.Error("render incomplete")
	}
}
