package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almostEqual(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestGeoMean(t *testing.T) {
	if !almostEqual(GeoMean([]float64{1, 4}), 2) {
		t.Error("GeoMean wrong")
	}
	if GeoMean([]float64{2, 0, 8}) != 0 {
		t.Error("GeoMean with zero should be 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestGeoMeanPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GeoMean([]float64{-1})
}

func TestGeoMeanLeqMean(t *testing.T) {
	// AM-GM inequality as a property test.
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || x > 1e100 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 || StdDev(nil) != 0 {
		t.Error("StdDev degenerate cases wrong")
	}
	// Population stddev of {2, 4} is 1.
	if !almostEqual(StdDev([]float64{2, 4}), 1) {
		t.Errorf("StdDev = %v", StdDev([]float64{2, 4}))
	}
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("constant data should have 0 stddev")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Error("Min/Max wrong")
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Min(nil)
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 0.25 || Ratio(5, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0)    // first bin
	h.Add(0.05) // first bin
	h.Add(0.1)  // second bin (strictly above first edge boundary by our convention: 0.1/0.1=1)
	h.Add(0.95) // last bin
	h.Add(1.0)  // clamped into last bin
	h.Add(1.5)  // clamped
	h.Add(-0.2) // clamped into first bin
	bins := h.Bins()
	if bins[0] != 3 {
		t.Errorf("bin 0 = %d, want 3", bins[0])
	}
	if bins[1] != 1 {
		t.Errorf("bin 1 = %d, want 1", bins[1])
	}
	if bins[9] != 3 {
		t.Errorf("bin 9 = %d, want 3", bins[9])
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramTailCount(t *testing.T) {
	h := NewHistogram(10)
	for _, x := range []float64{0.05, 0.45, 0.55, 0.95} {
		h.Add(x)
	}
	// Bins with upper edge > 0.5 are the 0.6..1.0 bins: contains 0.55, 0.95.
	if got := h.TailCount(0.5); got != 2 {
		t.Errorf("TailCount(0.5) = %d, want 2", got)
	}
	if got := h.TailCount(0); got != 4 {
		t.Errorf("TailCount(0) = %d, want 4", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Add(0.05)
	}
	s := h.Render("a2")
	if !strings.Contains(s, "a2 (n=100)") {
		t.Errorf("missing label: %s", s)
	}
	if !strings.Contains(s, "###") {
		t.Errorf("expected log-scaled bar of length 3 for 100 samples: %s", s)
	}
}

func TestHistogramPanicsOnZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(0)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "IPC", "miss")
	tb.AddRow("tomcatv", "1.03", "54.45")
	tb.AddRow("swim", "1.06")
	s := tb.String()
	if !strings.Contains(s, "tomcatv") || !strings.Contains(s, "54.45") {
		t.Errorf("text render missing cells:\n%s", s)
	}
}

func TestTableRowTooLongPanics(t *testing.T) {
	tb := NewTable("a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tb.AddRow("1", "2")
}

func TestHistogramJSON(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0.1)
	h.Add(0.9)
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		BinWidth float64 `json:"binWidth"`
		Bins     []int   `json:"bins"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.BinWidth != 0.25 || len(got.Bins) != 4 {
		t.Errorf("marshalled %s", b)
	}
	if got.Bins[0] != 1 || got.Bins[3] != 1 {
		t.Errorf("bins = %v", got.Bins)
	}
}
