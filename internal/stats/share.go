package stats

import "sort"

// ShareCurve describes what fraction of a total quantity is captured by the
// top fraction of items — the "Pareto effect" view used by Figure 2 of the
// paper (percentage of downloads vs normalized app ranking).
type ShareCurve struct {
	// RankPct[i] is the top percentage of items considered (e.g. 10 means
	// the top 10% most popular items).
	RankPct []float64
	// SharePct[i] is the percentage of the total captured by that top slice.
	SharePct []float64
}

// TopShare returns the fraction (0..1) of the total of xs held by the top
// fraction topFrac (0..1) of items when xs is ranked descending. A topFrac
// that selects zero items still selects one item if the slice is non-empty,
// matching how "top 1%" is read off rank plots for small stores.
func TopShare(xs []float64, topFrac float64) float64 {
	if len(xs) == 0 || topFrac <= 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := 0.0
	for _, v := range s {
		total += v
	}
	if total == 0 {
		return 0
	}
	k := int(topFrac * float64(len(s)))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	top := 0.0
	for _, v := range s[:k] {
		top += v
	}
	return top / total
}

// NewShareCurve computes the cumulative share of the total captured by the
// top k% of items for each percentage in rankPcts. Items are ranked by
// descending value.
func NewShareCurve(xs []float64, rankPcts []float64) ShareCurve {
	c := ShareCurve{
		RankPct:  append([]float64(nil), rankPcts...),
		SharePct: make([]float64, len(rankPcts)),
	}
	for i, p := range rankPcts {
		c.SharePct[i] = 100 * TopShare(xs, p/100)
	}
	return c
}
