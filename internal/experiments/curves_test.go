package experiments

import (
	"fmt"
	"testing"

	"repro/internal/index"
)

// TestCurvesShape checks the traced design space: one curve per
// (scheme, ways), spanning every set count, sizes ascending, plus the
// fully-associative envelope, and the report carries a series per curve.
func TestCurvesShape(t *testing.T) {
	cfg := CurvesConfig{Base: smallBase(), MaxWays: 4}
	res := runOK(t, RunCurvesCtx, cfg)
	if len(res.Curves) != len(curveSchemes()) {
		t.Fatalf("got %d scheme families, want %d", len(res.Curves), len(curveSchemes()))
	}
	for k, scheme := range res.Schemes {
		if len(res.Curves[k]) != cfg.MaxWays {
			t.Fatalf("%s: %d curves, want %d", scheme, len(res.Curves[k]), cfg.MaxWays)
		}
		for w := 1; w <= cfg.MaxWays; w++ {
			c := res.Curves[k][w-1]
			if c.Scheme != string(scheme) || c.Ways != w || c.Len() != len(res.SetCounts) {
				t.Fatalf("curve meta wrong: %+v", c)
			}
			for i, sets := range res.SetCounts {
				if want := int64(sets) * 32 * int64(w); c.SizesBytes[i] != want {
					t.Errorf("%s w=%d size[%d] = %d, want %d", scheme, w, i, c.SizesBytes[i], want)
				}
				if c.ReadMissPct[i] < 0 || c.ReadMissPct[i] > 100 {
					t.Errorf("%s w=%d readmiss[%d] out of range: %v", scheme, w, i, c.ReadMissPct[i])
				}
			}
			// Larger caches of the same family never miss more (LRU
			// inclusion within a fixed set count... holds along ways; along
			// sets it is a strong sanity bound only for the modulo family's
			// nested placements, so only check monotonicity in ways).
			if w > 1 {
				prev := res.Curves[k][w-2]
				for i := range c.ReadMissPct {
					if c.ReadMissPct[i] > prev.ReadMissPct[i]+1e-9 {
						t.Errorf("%s sets=%d: miss rose with ways (%v -> %v)",
							scheme, res.SetCounts[i], prev.ReadMissPct[i], c.ReadMissPct[i])
					}
				}
			}
		}
	}
	if res.FA.Len() == 0 || res.FA.Scheme != "fa" {
		t.Fatalf("FA curve missing: %+v", res.FA)
	}
	rep := res.report(cfg)
	wantSeries := len(res.Schemes)*cfg.MaxWays + 1
	if len(rep.Series) != wantSeries {
		t.Errorf("report has %d series, want %d", len(rep.Series), wantSeries)
	}
	if rep.Table("curves") == nil || rep.Table("fa") == nil {
		t.Error("report tables missing")
	}
}

// TestCurvesMatchSweepCells cross-checks the two experiments: every
// conventional sweep cell is also a curve point (same sets, ways,
// scheme, same suite mean), and the two paths — sweep's Family vs the
// curves experiment's — must agree exactly.
func TestCurvesMatchSweepCells(t *testing.T) {
	base := smallBase()
	sw := runOK(t, RunSweepCtx, base)
	cv := runOK(t, RunCurvesCtx, CurvesConfig{Base: base, MaxWays: 4})
	for _, sizeKB := range sw.SizesKB {
		for _, ways := range sw.Ways {
			want, ok := sw.At(sizeKB, ways, index.SchemeModulo)
			if !ok {
				t.Fatalf("sweep cell %dKB %dw missing", sizeKB, ways)
			}
			sets := sizeKB << 10 / 32 / ways
			got, ok := cv.At(index.SchemeModulo, ways, sets)
			if !ok {
				t.Fatalf("curve point sets=%d ways=%d missing", sets, ways)
			}
			if got != want {
				t.Errorf("%dKB %dw a2: curves %v != sweep %v", sizeKB, ways, got, want)
			}
		}
	}
}

// TestCurvesReportGoldenCell pins one representative curve cell format
// through the report model (the full golden coverage lives in
// golden_test.go).
func TestCurvesReportGoldenCell(t *testing.T) {
	cfg := CurvesConfig{Base: smallBase(), MaxWays: 2}
	res := runOK(t, RunCurvesCtx, cfg)
	rep := res.report(cfg)
	v, ok := rep.Float("curves", "128", "a2 w2")
	if !ok {
		t.Fatal("curves table cell (128, a2 w2) missing")
	}
	want, _ := res.At(index.SchemeModulo, 2, 128)
	if v != want {
		t.Errorf("report cell %v != result %v", v, want)
	}
	if _, ok := rep.SeriesByName(fmt.Sprintf("a2 w=%d", 2)); !ok {
		t.Error("series 'a2 w=2' missing")
	}
}
