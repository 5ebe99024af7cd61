package stats

import (
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
