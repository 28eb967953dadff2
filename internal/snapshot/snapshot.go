// Package snapshot tracks daily per-app statistics across a measurement
// period — the data shape the paper's crawlers collected — and derives the
// dataset summaries (Table 1), update distributions (Figure 4), and
// first/last-day rank curves the experiments need.
package snapshot

import (
	"fmt"
	"sort"

	"planetapps/internal/dist"
)

// Day is a daily snapshot of per-app cumulative statistics.
type Day struct {
	// Index is the day number within the measurement period (0-based).
	Index int
	// CumulativeDownloads[i] is app i's total downloads as of this day.
	// Apps added after this day are absent (slice shorter than later days).
	CumulativeDownloads []int64
	// Versions[i] is app i's shipped version count as of this day.
	Versions []int
	// Price[i] is app i's list price on this day (0 for free apps).
	Price []float64
}

// Series is an ordered sequence of daily snapshots of one store.
type Series struct {
	Store string
	Days  []*Day
}

// Append adds a snapshot; its Index must follow the previous one and app
// counts must not shrink.
func (s *Series) Append(d *Day) error {
	if len(s.Days) > 0 {
		last := s.Days[len(s.Days)-1]
		if d.Index != last.Index+1 {
			return fmt.Errorf("snapshot: day %d does not follow %d", d.Index, last.Index)
		}
		if len(d.CumulativeDownloads) < len(last.CumulativeDownloads) {
			return fmt.Errorf("snapshot: day %d has %d apps, fewer than %d",
				d.Index, len(d.CumulativeDownloads), len(last.CumulativeDownloads))
		}
	}
	if len(d.CumulativeDownloads) != len(d.Versions) || len(d.Versions) != len(d.Price) {
		return fmt.Errorf("snapshot: day %d has inconsistent field lengths", d.Index)
	}
	s.Days = append(s.Days, d)
	return nil
}

// First and Last return the boundary snapshots, or nil when empty.
func (s *Series) First() *Day {
	if len(s.Days) == 0 {
		return nil
	}
	return s.Days[0]
}

// Last returns the final snapshot, or nil when empty.
func (s *Series) Last() *Day {
	if len(s.Days) == 0 {
		return nil
	}
	return s.Days[len(s.Days)-1]
}

// Curve returns the rank-downloads curve of a snapshot.
func (d *Day) Curve() dist.RankCurve {
	vals := make([]float64, len(d.CumulativeDownloads))
	for i, v := range d.CumulativeDownloads {
		vals[i] = float64(v)
	}
	return dist.NewRankCurve(vals)
}

// TotalDownloads returns the snapshot's total cumulative downloads.
func (d *Day) TotalDownloads() int64 {
	var t int64
	for _, v := range d.CumulativeDownloads {
		t += v
	}
	return t
}

// Summary is one Table 1 row.
type Summary struct {
	Store string
	// Days is the measurement period length.
	Days int
	// AppsFirst and AppsLast are catalog sizes on the boundary days.
	AppsFirst, AppsLast int
	// NewAppsPerDay is the mean daily count of newly appearing apps.
	NewAppsPerDay float64
	// DownloadsFirst and DownloadsLast are total cumulative downloads.
	DownloadsFirst, DownloadsLast int64
	// DailyDownloads is the mean downloads per day over the period.
	DailyDownloads float64
}

// Summarize derives the Table 1 row from a series. It returns an error for
// series shorter than two days, for which rates are undefined.
func (s *Series) Summarize() (Summary, error) {
	if len(s.Days) < 2 {
		return Summary{}, fmt.Errorf("snapshot: need >= 2 days, have %d", len(s.Days))
	}
	first, last := s.First(), s.Last()
	days := last.Index - first.Index
	sum := Summary{
		Store:          s.Store,
		Days:           days + 1,
		AppsFirst:      len(first.CumulativeDownloads),
		AppsLast:       len(last.CumulativeDownloads),
		DownloadsFirst: first.TotalDownloads(),
		DownloadsLast:  last.TotalDownloads(),
	}
	sum.NewAppsPerDay = float64(sum.AppsLast-sum.AppsFirst) / float64(days)
	sum.DailyDownloads = float64(sum.DownloadsLast-sum.DownloadsFirst) / float64(days)
	return sum, nil
}

// UpdateCounts returns, per app present on the first day, the number of
// version updates observed across the period (Figure 4's sample).
func (s *Series) UpdateCounts() []int {
	if len(s.Days) < 2 {
		return nil
	}
	first, last := s.First(), s.Last()
	out := make([]int, len(first.Versions))
	for i := range out {
		out[i] = last.Versions[i] - first.Versions[i]
	}
	return out
}

// UpdateCountsTop returns update counts restricted to the top fraction of
// apps by final downloads — the paper checks the top 10% separately to
// confirm fetch-at-most-once is not an artifact of updates.
func (s *Series) UpdateCountsTop(frac float64) []int {
	counts := s.UpdateCounts()
	if counts == nil || frac <= 0 {
		return nil
	}
	last := s.Last()
	type pair struct {
		i int
		d int64
	}
	pairs := make([]pair, len(counts))
	for i := range counts {
		pairs[i] = pair{i, last.CumulativeDownloads[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d > pairs[b].d })
	k := int(frac * float64(len(pairs)))
	if k < 1 {
		k = 1
	}
	out := make([]int, 0, k)
	for _, p := range pairs[:k] {
		out = append(out, counts[p.i])
	}
	return out
}
