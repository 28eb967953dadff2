package dist

import (
	"math"
	"sort"

	"planetapps/internal/stats"
)

// RankCurve is an observed rank-frequency curve: Downloads[i] is the value
// of the item with rank i+1 when items are sorted by descending value. It is
// the shape plotted in Figures 3, 8 and 11 of the paper.
type RankCurve struct {
	Downloads []float64
}

// NewRankCurve sorts the values descending and returns the resulting curve.
// The input is copied.
func NewRankCurve(values []float64) RankCurve {
	s := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return RankCurve{Downloads: s}
}

// Total returns the sum of all values on the curve.
func (c RankCurve) Total() float64 {
	t := 0.0
	for _, v := range c.Downloads {
		t += v
	}
	return t
}

// Top returns the value at rank 1 (the most popular item), or 0 when empty.
func (c RankCurve) Top() float64 {
	if len(c.Downloads) == 0 {
		return 0
	}
	return c.Downloads[0]
}

// TrimZeroTail drops trailing zero-download ranks: the paper's measured
// curves only contain apps with at least one download, while simulated
// catalogs include never-downloaded apps whose zero entries the relative
// error metric cannot compare against. The result shares c's array.
func (c RankCurve) TrimZeroTail() RankCurve {
	n := len(c.Downloads)
	for n > 0 && c.Downloads[n-1] <= 0 {
		n--
	}
	return RankCurve{Downloads: c.Downloads[:n]}
}

// TrunkExponent estimates the power-law exponent of the curve's central
// "trunk" by least-squares regression of log(value) on log(rank), skipping
// the truncated head and tail. headFrac and tailFrac give the fraction of
// ranks to exclude at each end (the paper's Figure 3 slopes are trunk fits).
// The returned exponent is positive for a decaying curve.
func (c RankCurve) TrunkExponent(headFrac, tailFrac float64) float64 {
	n := len(c.Downloads)
	if n < 4 {
		return 0
	}
	lo := int(headFrac * float64(n))
	hi := n - int(tailFrac*float64(n))
	if hi-lo < 2 {
		lo, hi = 0, n
	}
	var xs, ys []float64
	for i := lo; i < hi; i++ {
		v := c.Downloads[i]
		if v <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(v))
	}
	if len(xs) < 2 {
		return 0
	}
	slope, _ := stats.LinearFit(xs, ys)
	return -slope
}

// MeanRelativeError implements the paper's distance metric (Eq. 6): the mean
// over ranks of |observed - simulated| / observed. Ranks where the observed
// value is zero are skipped (the paper's measured downloads are positive).
// Curves of different lengths are compared over the shorter prefix, with
// the missing tail of the shorter curve treated as zeros against the
// longer's remaining observed mass.
func MeanRelativeError(observed, simulated RankCurve) float64 {
	no, ns := len(observed.Downloads), len(simulated.Downloads)
	n := no
	if ns < n {
		n = ns
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		o := observed.Downloads[i]
		if o <= 0 {
			continue
		}
		sum += math.Abs(o-simulated.Downloads[i]) / o
		count++
	}
	// Observed ranks beyond the simulated curve count as fully missed.
	for i := n; i < no; i++ {
		if observed.Downloads[i] > 0 {
			sum++
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// HeadFlatness quantifies head truncation: the ratio of the rank-1 value to
// the value a pure power law with the trunk exponent would predict from the
// mid-trunk anchor. Values well below 1 indicate the flattened head the
// paper attributes to fetch-at-most-once.
func (c RankCurve) HeadFlatness() float64 {
	n := len(c.Downloads)
	if n < 10 || c.Downloads[0] <= 0 {
		return 1
	}
	s := c.TrunkExponent(0.05, 0.2)
	anchor := n / 10
	if anchor < 1 {
		anchor = 1
	}
	av := c.Downloads[anchor-1]
	if av <= 0 || s <= 0 {
		return 1
	}
	predictedTop := av * math.Pow(float64(anchor), s)
	if predictedTop <= 0 {
		return 1
	}
	return c.Downloads[0] / predictedTop
}

// TailDrop quantifies tail truncation: the ratio of the observed value at
// the 99th-percentile rank to the trunk power law's prediction there.
// Values well below 1 indicate the steep tail drop the paper attributes to
// the clustering effect.
func (c RankCurve) TailDrop() float64 {
	n := len(c.Downloads)
	if n < 20 {
		return 1
	}
	s := c.TrunkExponent(0.05, 0.2)
	anchor := n / 10
	if anchor < 1 {
		anchor = 1
	}
	av := c.Downloads[anchor-1]
	tailRank := (n * 99) / 100
	tv := c.Downloads[tailRank-1]
	if av <= 0 || tv < 0 || s <= 0 {
		return 1
	}
	predicted := av * math.Pow(float64(anchor)/float64(tailRank), s)
	if predicted <= 0 {
		return 1
	}
	return tv / predicted
}
