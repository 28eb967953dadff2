// Package affinity implements the paper's temporal-affinity analysis (§4)
// over per-user category strings (built from comment streams by
// comments.AppStrings and comments.CategoryStrings): the affinity metric at
// arbitrary depth (Eq. 1 and Eq. 3) and the exact random-walk baseline
// (Eq. 4, which is Eq. 2 at depth 1) computed from the store's actual
// category-size distribution.
package affinity

import (
	"fmt"
	"sort"

	"planetapps/internal/stats"
)

// Affinity computes the depth-d temporal affinity of a category string
// (Eq. 3): the fraction of elements, among those with at least d
// predecessors, whose category matches at least one of its previous d
// elements. Depth 1 reduces to Eq. 1. It returns (0, false) when the
// string is too short (n <= d) to define the metric.
func Affinity[C comparable](cats []C, depth int) (float64, bool) {
	n := len(cats)
	if depth < 1 || n <= depth {
		return 0, false
	}
	matches := 0
	for i := depth; i < n; i++ {
		for k := 1; k <= depth; k++ {
			if cats[i] == cats[i-k] {
				matches++
				break
			}
		}
	}
	return float64(matches) / float64(n-depth), true
}

// RandomWalkAffinityDepth computes the random-walk baseline for depth d
// (Eq. 4): the probability that a uniformly random app shares its category
// with at least one of the previous d uniformly random distinct apps,
//
//	sum_i A(i)*(A(i)-1) * d * prod_{k=2..d}(A-k)  /  prod_{k=0..d}(A-k)
//
// which reduces to Eq. 2 at d = 1.
func RandomWalkAffinityDepth(categorySizes []int, depth int) float64 {
	if depth < 1 {
		return 0
	}
	var a float64
	for _, s := range categorySizes {
		a += float64(s)
	}
	if a < float64(depth)+1 {
		return 0
	}
	num := 0.0
	for _, s := range categorySizes {
		num += float64(s) * (float64(s) - 1)
	}
	num *= float64(depth)
	for k := 2; k <= depth; k++ {
		num *= a - float64(k)
	}
	den := 1.0
	for k := 0; k <= depth; k++ {
		den *= a - float64(k)
	}
	p := num / den
	if p > 1 {
		p = 1
	}
	return p
}

// UserAffinity is the per-user affinity measurement at one depth.
type UserAffinity struct {
	// User identifies the user.
	User int32
	// Comments is the length of the user's compressed app string.
	Comments int
	// Affinity is the measured affinity value.
	Affinity float64
}

// GroupPoint summarizes the affinity of all users with the same comment
// count — one point of Figure 6.
type GroupPoint struct {
	// Comments is the group's comment count i; the group is G(i).
	Comments int
	// N is the number of users in the group.
	N int
	// Mean is the group's average affinity.
	Mean float64
	// CI95 is the half-width of the 95% confidence interval on the mean.
	CI95 float64
}

// GroupByComments groups per-user affinities by comment count and returns
// the mean and 95% CI per group, ordered by comment count ascending. Groups
// with fewer than minSamples users are dropped — the paper uses this to
// exclude spammy outlier groups ("we plotted only the groups that had more
// than 10 samples").
func GroupByComments(users []UserAffinity, minSamples int) []GroupPoint {
	byCount := map[int][]float64{}
	for _, u := range users {
		byCount[u.Comments] = append(byCount[u.Comments], u.Affinity)
	}
	counts := make([]int, 0, len(byCount))
	for c, vals := range byCount {
		if len(vals) >= minSamples {
			counts = append(counts, c)
		}
	}
	sort.Ints(counts)
	out := make([]GroupPoint, 0, len(counts))
	for _, c := range counts {
		mean, ci := stats.MeanCI95(byCount[c])
		out = append(out, GroupPoint{Comments: c, N: len(byCount[c]), Mean: mean, CI95: ci})
	}
	return out
}

// Analysis is the full temporal-affinity study of a comment dataset at the
// requested depths, the content of Figures 6 and 7.
type Analysis struct {
	// Depths lists the analyzed depth levels (e.g. 1, 2, 3).
	Depths []int
	// PerUser[d] holds the per-user affinities at Depths[d].
	PerUser [][]UserAffinity
	// Groups[d] holds the grouped means at Depths[d].
	Groups [][]GroupPoint
	// RandomWalk[d] is the random-walk baseline at Depths[d].
	RandomWalk []float64
	// OverallMean[d] is the mean affinity across users at Depths[d].
	OverallMean []float64
	// Medians[d] is the median per-user affinity at Depths[d].
	Medians []float64
}

// Analyze measures temporal affinity at each depth for every user's
// category string. categoryStrings maps user → compressed category string;
// categorySizes gives the store's per-category app counts for the
// random-walk baselines; minSamples filters grouped points (Figure 6 uses
// 10). Users whose strings are too short for a depth are skipped at that
// depth, matching the paper's treatment.
func Analyze(categoryStrings map[int32][]int, categorySizes []int, depths []int, minSamples int) (*Analysis, error) {
	if len(depths) == 0 {
		return nil, fmt.Errorf("affinity: no depths requested")
	}
	for _, d := range depths {
		if d < 1 {
			return nil, fmt.Errorf("affinity: invalid depth %d", d)
		}
	}
	a := &Analysis{
		Depths:      append([]int(nil), depths...),
		PerUser:     make([][]UserAffinity, len(depths)),
		Groups:      make([][]GroupPoint, len(depths)),
		RandomWalk:  make([]float64, len(depths)),
		OverallMean: make([]float64, len(depths)),
		Medians:     make([]float64, len(depths)),
	}
	// Deterministic user order.
	users := make([]int32, 0, len(categoryStrings))
	for u := range categoryStrings {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	for di, d := range depths {
		a.RandomWalk[di] = RandomWalkAffinityDepth(categorySizes, d)
		var vals []float64
		for _, u := range users {
			cats := categoryStrings[u]
			aff, ok := Affinity(cats, d)
			if !ok {
				continue
			}
			a.PerUser[di] = append(a.PerUser[di], UserAffinity{User: u, Comments: len(cats), Affinity: aff})
			vals = append(vals, aff)
		}
		a.Groups[di] = GroupByComments(a.PerUser[di], minSamples)
		a.OverallMean[di] = stats.Mean(vals)
		a.Medians[di] = stats.Median(vals)
	}
	return a, nil
}

// CDF returns the empirical CDF of per-user affinities at depth index di
// (an index into Depths, not a depth value) — one Figure 7 curve.
func (a *Analysis) CDF(di int) *stats.ECDF {
	vals := make([]float64, len(a.PerUser[di]))
	for i, u := range a.PerUser[di] {
		vals[i] = u.Affinity
	}
	return stats.NewECDF(vals)
}
