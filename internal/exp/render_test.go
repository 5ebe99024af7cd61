package exp

import (
	"encoding/json"
	"math"
	"testing"
)

// seriesReport builds a small series-bearing report with deterministic
// content, the shape the curves experiment emits.
func seriesReport() *Report {
	r := &Report{Experiment: "curves", Summary: "miss-ratio curves"}
	r.Instructions, r.Seed = 1000, 7
	t := NewTable("curves", "Load miss % per scheme",
		StrCol("sets"), FloatCol("a2 w1", ""), FloatCol("a2 w2", ""))
	t.AddRow("128", 26.5, 18.25)
	t.AddRow("256", 20.0, 12.125)
	r.AddTable(t)
	r.AddSeries(Series{
		Name: "a2 w=1", XLabel: "size", YLabel: "load miss %",
		X: []float64{4096, 8192}, Y: []float64{26.5, 20},
	})
	r.AddSeries(Series{
		Name: "fa", XLabel: "size", YLabel: "load miss %",
		X: []float64{4096, 8192}, Y: []float64{12, 0.5},
	})
	r.Notef("one pass, all sizes")
	return r
}

// TestRenderSeriesGolden pins the exact text rendering of a
// series-bearing report: header, table, one row per curve point with
// the x= prefix and log-scaled bars, notes.
func TestRenderSeriesGolden(t *testing.T) {
	got := seriesReport().RenderString()
	want := "curves — miss-ratio curves\n" +
		"(instructions=1000 seed=7)\n" +
		"\n" +
		"Load miss % per scheme\n" +
		"\n" +
		"sets  a2 w1  a2 w2\n" +
		"----  -----  -----\n" +
		"128   26.50  18.25\n" +
		"256   20.00  12.12\n" +
		"\n" +
		"a2 w=1 (n=46.5)\n" +
		"  size=4096.0     26.5 ##\n" +
		"  size=8192.0       20 ##\n" +
		"\n" +
		"fa (n=12.5)\n" +
		"  size=4096.0       12 ##\n" +
		"  size=8192.0      0.5 \n" +
		"\n" +
		"one pass, all sizes\n"
	if got != want {
		t.Errorf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSeriesJSONRoundTrip checks that a series-bearing report survives
// the repro/report/v1 JSON encoding bit-exactly, including awkward
// float values (curve percentages are arbitrary float64s).
func TestSeriesJSONRoundTrip(t *testing.T) {
	r := seriesReport()
	r.Schema = ReportSchema
	r.Series[0].Y = []float64{26.5, math.Pi, 1e-17, 0.1 + 0.2}
	r.Series[0].X = []float64{1, 2, 3, 4}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(r.Series) {
		t.Fatalf("series count: %d != %d", len(back.Series), len(r.Series))
	}
	for i, s := range r.Series {
		b := back.Series[i]
		if b.Name != s.Name || b.XLabel != s.XLabel || b.YLabel != s.YLabel {
			t.Errorf("series %d labels differ: %+v vs %+v", i, b, s)
		}
		for j := range s.Y {
			if b.Y[j] != s.Y[j] {
				t.Errorf("series %d Y[%d]: %v != %v (not bit-exact)", i, j, b.Y[j], s.Y[j])
			}
		}
		for j := range s.X {
			if b.X[j] != s.X[j] {
				t.Errorf("series %d X[%d]: %v != %v", i, j, b.X[j], s.X[j])
			}
		}
	}
	if back.Table("curves") == nil {
		t.Error("table lost in round trip")
	}
}
