package experiments

import (
	"fmt"

	"planetapps/internal/dist"
	"planetapps/internal/report"
	"planetapps/internal/snapshot"
	"planetapps/internal/stats"
)

func init() {
	register("T1", func(s *Suite) (Result, error) { return Table1(s) })
	register("F2", func(s *Suite) (Result, error) { return Figure2(s) })
	register("F3", func(s *Suite) (Result, error) { return Figure3(s) })
	register("F4", func(s *Suite) (Result, error) { return Figure4(s) })
}

// Table1Result is the dataset summary (Table 1).
type Table1Result struct {
	Rows []snapshot.Summary
}

// Tables implements Result.
func (r *Table1Result) Tables() []*report.Table {
	t := report.NewTable(
		"Table 1: summary of collected data",
		"store", "days", "apps first/last", "new apps/day", "downloads first/last", "daily downloads")
	for _, s := range r.Rows {
		t.AddRow(s.Store, s.Days,
			fmt.Sprintf("%d / %d", s.AppsFirst, s.AppsLast),
			s.NewAppsPerDay,
			fmt.Sprintf("%d / %d", s.DownloadsFirst, s.DownloadsLast),
			s.DailyDownloads)
	}
	return []*report.Table{t}
}

// Table1 summarizes every store's simulated measurement period.
func Table1(s *Suite) (*Table1Result, error) {
	out := &Table1Result{}
	for _, store := range s.StoreNames() {
		ds, err := s.Store(store)
		if err != nil {
			return nil, err
		}
		sum, err := ds.Series.Summarize()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, sum)
	}
	return out, nil
}

// Figure2Result is the Pareto-effect CDF (Figure 2): per store, the share
// of downloads captured by the top k% of apps.
type Figure2Result struct {
	RankPcts []float64
	// Share[store][i] is the percentage of downloads captured by the top
	// RankPcts[i] percent of apps.
	Share map[string][]float64
	Order []string
}

// Tables implements Result.
func (r *Figure2Result) Tables() []*report.Table {
	t := report.NewTable("Figure 2: percentage of downloads vs normalized app ranking",
		append([]string{"top-k% apps"}, r.Order...)...)
	for i, p := range r.RankPcts {
		row := []any{p}
		for _, store := range r.Order {
			row = append(row, r.Share[store][i])
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// Figure2 computes the download share curves.
func Figure2(s *Suite) (*Figure2Result, error) {
	pcts := []float64{1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	out := &Figure2Result{RankPcts: pcts, Share: map[string][]float64{}, Order: s.StoreNames()}
	for _, store := range out.Order {
		ds, err := s.Store(store)
		if err != nil {
			return nil, err
		}
		curve := ds.Series.Last().Curve()
		sc := stats.NewShareCurve(curve.Downloads, pcts)
		out.Share[store] = sc.SharePct
	}
	return out, nil
}

// Figure3Result is the per-store rank-downloads distribution (Figure 3)
// with the fitted trunk exponent and truncation diagnostics.
type Figure3Result struct {
	Stores []Figure3Store
}

// Figure3Store is one subplot of Figure 3.
type Figure3Store struct {
	Store string
	Curve dist.RankCurve
	// TrunkExponent is the fitted power-law slope of the central trunk.
	TrunkExponent float64
	// HeadFlatness < 1 indicates fetch-at-most-once head truncation.
	HeadFlatness float64
	// TailDrop < 1 indicates clustering-effect tail truncation.
	TailDrop float64
	// Cutoff is the fitted power-law-with-exponential-cutoff model — the
	// functional form user-generated-content popularity follows, which the
	// paper notes resembles app popularity. A cutoff within the rank range
	// confirms the truncated tail.
	Cutoff dist.CutoffFit
}

// Tables implements Result.
func (r *Figure3Result) Tables() []*report.Table {
	summary := report.NewTable("Figure 3: app popularity distributions (fit summary)",
		"store", "apps", "trunk exponent", "head flatness", "tail drop",
		"cutoff alpha", "cutoff rank")
	var tables []*report.Table
	for _, st := range r.Stores {
		summary.AddRow(st.Store, len(st.Curve.Downloads), st.TrunkExponent,
			st.HeadFlatness, st.TailDrop, st.Cutoff.Alpha, st.Cutoff.Cutoff)
	}
	tables = append(tables, summary)
	for _, st := range r.Stores {
		t := report.NewTable(fmt.Sprintf("Figure 3 (%s): downloads vs app rank (log-spaced sample)", st.Store),
			"rank", "downloads")
		for _, i := range report.LogSpacedIndexes(len(st.Curve.Downloads), 16) {
			t.AddRow(float64(i+1), st.Curve.Downloads[i])
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure3 extracts the rank curves and their truncated power-law shape.
func Figure3(s *Suite) (*Figure3Result, error) {
	out := &Figure3Result{}
	for _, store := range s.StoreNames() {
		ds, err := s.Store(store)
		if err != nil {
			return nil, err
		}
		curve := ds.Series.Last().Curve()
		cut, _ := dist.FitPowerLawCutoff(curve)
		out.Stores = append(out.Stores, Figure3Store{
			Store:         store,
			Curve:         curve,
			TrunkExponent: curve.TrunkExponent(0.02, 0.3),
			HeadFlatness:  curve.HeadFlatness(),
			TailDrop:      curve.TailDrop(),
			Cutoff:        cut,
		})
	}
	return out, nil
}

// Figure4Result is the update-count CDF (Figure 4).
type Figure4Result struct {
	Stores []Figure4Store
}

// Figure4Store is one store's update statistics.
type Figure4Store struct {
	Store string
	// NoUpdatePct is the share of apps with zero updates in the period.
	NoUpdatePct float64
	// P99Updates is the 99th-percentile update count.
	P99Updates float64
	// TopNoUpdatePct is the zero-update share among the top 10% most
	// downloaded apps.
	TopNoUpdatePct float64
	// CDF holds P(updates <= k) for k = 0..6.
	CDF []float64
}

// Tables implements Result.
func (r *Figure4Result) Tables() []*report.Table {
	t := report.NewTable("Figure 4: app update counts over the period",
		"store", "% never updated", "p99 updates", "% never updated (top 10%)",
		"P(u<=0)", "P(u<=2)", "P(u<=4)", "P(u<=6)")
	for _, st := range r.Stores {
		t.AddRow(st.Store, st.NoUpdatePct, st.P99Updates, st.TopNoUpdatePct,
			st.CDF[0], st.CDF[2], st.CDF[4], st.CDF[6])
	}
	return []*report.Table{t}
}

// Figure4 measures update behaviour, validating the fetch-at-most-once
// premise.
func Figure4(s *Suite) (*Figure4Result, error) {
	out := &Figure4Result{}
	for _, store := range s.StoreNames() {
		ds, err := s.Store(store)
		if err != nil {
			return nil, err
		}
		counts := ds.Series.UpdateCounts()
		if counts == nil {
			return nil, fmt.Errorf("experiments: store %s has no update data", store)
		}
		vals := make([]float64, len(counts))
		for i, c := range counts {
			vals[i] = float64(c)
		}
		ecdf := stats.NewECDF(vals)
		st := Figure4Store{
			Store:       store,
			NoUpdatePct: 100 * ecdf.At(0),
			P99Updates:  stats.Percentile(vals, 99),
		}
		for k := 0; k <= 6; k++ {
			st.CDF = append(st.CDF, ecdf.At(float64(k)))
		}
		topCounts := ds.Series.UpdateCountsTop(0.10)
		zero := 0
		for _, c := range topCounts {
			if c == 0 {
				zero++
			}
		}
		if len(topCounts) > 0 {
			st.TopNoUpdatePct = 100 * float64(zero) / float64(len(topCounts))
		}
		out.Stores = append(out.Stores, st)
	}
	return out, nil
}
