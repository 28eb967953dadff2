// Package stats implements the descriptive statistics used throughout the
// reproduction: empirical CDFs, percentiles, correlation coefficients,
// confidence intervals, Pareto/Lorenz share curves, histogram binning, and
// simple linear regression.
//
// All functions operate on plain float64 slices and never mutate their
// inputs unless explicitly documented.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator),
// or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanCI95 returns the sample mean of xs together with the half-width of a
// 95% normal-approximation confidence interval (1.96 * stderr). The paper
// plots such intervals per user group in Figure 6.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n == 1 {
		return mean, 0
	}
	stderr := StdDev(xs) / math.Sqrt(float64(n))
	return mean, 1.96 * stderr
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns 0 when either input is constant or the lengths
// differ or are < 2; the paper reports this coefficient in Figures 12 and 14.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit returns the least-squares line y = slope*x + intercept for the
// given points. It returns (0, mean(ys)) when xs is constant.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	n := len(xs)
	if n != len(ys) || n == 0 {
		return 0, 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}
