package stats

import "math"

// Histogram bins values into fixed-width bins starting at Min. The paper's
// Figure 12 groups paid apps into $1-wide price bins; this type generalizes
// that construction.
type Histogram struct {
	Min   float64
	Width float64
	// Counts[i] is the number of values in [Min+i*Width, Min+(i+1)*Width).
	Counts []int
	// Sums[i] accumulates an auxiliary per-bin quantity (e.g. downloads),
	// so MeanIn reports per-bin averages.
	Sums []float64
}

// NewHistogram creates a histogram with the given origin, bin width and
// number of bins. Width must be positive and bins non-negative.
func NewHistogram(min, width float64, bins int) *Histogram {
	if width <= 0 {
		panic("stats: histogram width must be positive")
	}
	if bins < 0 {
		panic("stats: negative bin count")
	}
	return &Histogram{Min: min, Width: width, Counts: make([]int, bins), Sums: make([]float64, bins)}
}

// BinIndex returns the bin index for x, or -1 when x falls outside the range.
func (h *Histogram) BinIndex(x float64) int {
	if x < h.Min {
		return -1
	}
	i := int(math.Floor((x - h.Min) / h.Width))
	if i >= len(h.Counts) {
		return -1
	}
	return i
}

// Add records value x carrying auxiliary quantity aux (pass 0 when unused).
// Out-of-range values are ignored and reported as false.
func (h *Histogram) Add(x, aux float64) bool {
	i := h.BinIndex(x)
	if i < 0 {
		return false
	}
	h.Counts[i]++
	h.Sums[i] += aux
	return true
}

// MeanIn returns the mean auxiliary quantity in bin i, or 0 for empty bins.
func (h *Histogram) MeanIn(i int) float64 {
	if i < 0 || i >= len(h.Counts) || h.Counts[i] == 0 {
		return 0
	}
	return h.Sums[i] / float64(h.Counts[i])
}
