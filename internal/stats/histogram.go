package stats

// Histogram buckets samples in [0,1] into fixed-width bins, reproducing
// the presentation of the paper's Figure 1 ("frequency distribution of
// miss ratios", plotted with a log-scaled frequency axis).
type Histogram struct {
	bins  []int
	width float64
}

// NewHistogram returns a histogram of n equal-width bins over [0, 1].
// Figure 1 uses n = 10 (bins 0.1, 0.2, ..., 1.0).
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	return &Histogram{bins: make([]int, n), width: 1 / float64(n)}
}

// Add records one sample.  Samples are clamped to [0, 1]; a sample lands
// in the bin whose upper edge is the smallest edge >= the sample (so 0
// lands in the first bin and 1.0 in the last).
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	i := int(x / h.width)
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
}

// Merge adds o's counts into h.  It panics if the histograms have a
// different number of bins.  Merging partial histograms produced by
// parallel sweep jobs is exact: bin counts are integers, so the merged
// histogram is identical to one filled serially.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bins) != len(o.bins) {
		panic("stats: merging histograms with different bin counts")
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
}

// Bins returns a copy of the per-bin counts.
func (h *Histogram) Bins() []int { return append([]int(nil), h.bins...) }

// Count returns the total number of samples recorded.
func (h *Histogram) Count() int {
	n := 0
	for _, b := range h.bins {
		n += b
	}
	return n
}

// UpperEdge returns the upper edge of bin i.
func (h *Histogram) UpperEdge(i int) float64 { return float64(i+1) * h.width }
