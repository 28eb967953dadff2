package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
// Evaluation is O(log n).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x) for the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Count of samples <= x.
	n := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v such that At(v) >= q,
// for q in (0, 1]. Quantile(0) returns the minimum sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}
