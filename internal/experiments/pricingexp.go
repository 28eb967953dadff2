package experiments

import (
	"slices"
	"sort"

	"planetapps/internal/catalog"
	"planetapps/internal/dist"
	"planetapps/internal/pricing"
	"planetapps/internal/report"
	"planetapps/internal/snapshot"
	"planetapps/internal/stats"
)

func init() {
	register("F11", func(s *Suite) (Result, error) { return Figure11(s) })
	register("F12", func(s *Suite) (Result, error) { return Figure12(s) })
	register("F13", func(s *Suite) (Result, error) { return Figure13(s) })
	register("F14", func(s *Suite) (Result, error) { return Figure14(s) })
	register("F15", func(s *Suite) (Result, error) { return Figure15(s) })
	register("F16", func(s *Suite) (Result, error) { return Figure16(s) })
	register("F17", func(s *Suite) (Result, error) { return Figure17(s) })
	register("F18", func(s *Suite) (Result, error) { return Figure18(s) })
}

// pricingDataset is the §6 input: the catalog and last-day downloads of the
// SlideMe profile — the only profiled store carrying paid apps, as in the
// paper — or of a given dataset that lists a paid app.
func (s *Suite) pricingDataset() (pricing.Dataset, *snapshot.Series, error) {
	ds, err := s.Store(s.role("slideme"))
	if err != nil {
		return pricing.Dataset{}, nil, err
	}
	if !slices.ContainsFunc(ds.Catalog.Apps, func(a catalog.App) bool { return a.Pricing == catalog.Paid }) {
		return pricing.Dataset{}, nil, &Skipped{"the store lists no paid app"}
	}
	out := pricing.Dataset{Catalog: ds.Catalog, Downloads: ds.Series.Last().CumulativeDownloads}
	return out, ds.Series, out.Validate()
}

// Figure11Result contrasts free and paid popularity curves (Figure 11).
type Figure11Result struct {
	Free, Paid dist.RankCurve
	// FreeTrunk and PaidTrunk are the fitted exponents (paper: 0.85, 1.72).
	FreeTrunk, PaidTrunk float64
	// PaidTailDrop near 1 indicates the clean power law of paid apps.
	PaidTailDrop, FreeTailDrop float64
}

// Tables implements Result.
func (r *Figure11Result) Tables() []*report.Table {
	t := report.NewTable("Figure 11: free vs paid app popularity (SlideMe profile)",
		"class", "apps", "total downloads", "trunk exponent", "tail drop")
	t.AddRow("free", len(r.Free.Downloads), r.Free.Total(), r.FreeTrunk, r.FreeTailDrop)
	t.AddRow("paid", len(r.Paid.Downloads), r.Paid.Total(), r.PaidTrunk, r.PaidTailDrop)
	return []*report.Table{t}
}

// Figure11 splits the SlideMe curves by pricing class.
func Figure11(s *Suite) (*Figure11Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	free, paid := ds.SplitCurves()
	free = free.TrimZeroTail()
	paid = paid.TrimZeroTail()
	return &Figure11Result{
		Free: free, Paid: paid,
		FreeTrunk:    free.TrunkExponent(0.02, 0.3),
		PaidTrunk:    paid.TrunkExponent(0.02, 0.3),
		FreeTailDrop: free.TailDrop(),
		PaidTailDrop: paid.TailDrop(),
	}, nil
}

// Figure12Result is the price-vs-popularity study (Figure 12).
type Figure12Result struct {
	Bins pricing.PriceBins
}

// Tables implements Result.
func (r *Figure12Result) Tables() []*report.Table {
	t := report.NewTable("Figure 12: downloads and apps vs price ($1 bins)",
		"price bin", "apps", "mean downloads")
	for _, b := range r.Bins.Bins {
		t.AddRow(b.LowPrice, b.Apps, b.MeanDownloads)
	}
	c := report.NewTable("Figure 12: correlations", "pair", "value")
	c.AddRow("price vs downloads (Pearson)", r.Bins.PriceDownloadsR)
	c.AddRow("price vs downloads (Kendall tau)", r.Bins.PriceDownloadsTau)
	c.AddRow("price vs app count (Pearson)", r.Bins.PriceAppsR)
	return []*report.Table{t, c}
}

// Figure12 computes the price histograms and correlations.
func Figure12(s *Suite) (*Figure12Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	bins, err := pricing.AnalyzePrices(ds)
	if err != nil {
		return nil, err
	}
	return &Figure12Result{Bins: bins}, nil
}

// Figure13Result is the developer income CDF (Figure 13).
type Figure13Result struct {
	Incomes []pricing.DeveloperIncome
	// Quantiles of income at the probed percentiles.
	Percentiles map[int]float64
}

// Tables implements Result.
func (r *Figure13Result) Tables() []*report.Table {
	t := report.NewTable("Figure 13: total income per developer (paid apps)",
		"percentile", "income ($)")
	keys := make([]int, 0, len(r.Percentiles))
	for k := range r.Percentiles {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		t.AddRow(k, r.Percentiles[k])
	}
	return []*report.Table{t}
}

// Figure13 computes the income distribution.
func Figure13(s *Suite) (*Figure13Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	incomes, err := pricing.Incomes(ds)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(incomes))
	for i, inc := range incomes {
		vals[i] = inc.Income
	}
	out := &Figure13Result{Incomes: incomes, Percentiles: map[int]float64{}}
	for _, p := range []int{10, 25, 50, 80, 95, 99} {
		out.Percentiles[p] = stats.Percentile(vals, float64(p))
	}
	return out, nil
}

// Figure14Result correlates income with portfolio size (Figure 14).
type Figure14Result struct {
	Correlation float64
	// FitSlope is the least-squares slope of apps on income (paper:
	// 0.00364, i.e. essentially flat).
	FitSlope float64
}

// Tables implements Result.
func (r *Figure14Result) Tables() []*report.Table {
	t := report.NewTable("Figure 14: paid apps per developer vs income",
		"metric", "value")
	t.AddRow("Pearson r (apps, income)", r.Correlation)
	t.AddRow("fit slope (apps on income)", r.FitSlope)
	return []*report.Table{t}
}

// Figure14 measures the quality-over-quantity effect.
func Figure14(s *Suite) (*Figure14Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	incomes, err := pricing.Incomes(ds)
	if err != nil {
		return nil, err
	}
	var apps, inc []float64
	for _, d := range incomes {
		apps = append(apps, float64(d.PaidApps))
		inc = append(inc, d.Income)
	}
	slope, _ := stats.LinearFit(inc, apps)
	return &Figure14Result{
		Correlation: pricing.IncomeAppsCorrelation(incomes),
		FitSlope:    slope,
	}, nil
}

// Figure15Result is the per-category revenue breakdown (Figure 15).
type Figure15Result struct {
	Shares []pricing.CategoryShare
	// RevenueAppsR is the correlation between a category's revenue share
	// and app share (paper: 0.014).
	RevenueAppsR float64
	// RevenueDevsR is the correlation with developer share (paper: 0.198).
	RevenueDevsR float64
	// Top4RevenuePct is the revenue share of the top four categories
	// (paper: 95%).
	Top4RevenuePct float64
}

// Tables implements Result.
func (r *Figure15Result) Tables() []*report.Table {
	t := report.NewTable("Figure 15: revenue/apps/developers per category (top 12)",
		"category", "revenue %", "apps %", "developers %")
	for i, cs := range r.Shares {
		if i >= 12 {
			break
		}
		t.AddRow(cs.Name, cs.RevenuePct, cs.AppsPct, cs.DevsPct)
	}
	c := report.NewTable("Figure 15: summary", "metric", "value")
	c.AddRow("top-4 categories revenue %", r.Top4RevenuePct)
	c.AddRow("Pearson r (revenue, apps)", r.RevenueAppsR)
	c.AddRow("Pearson r (revenue, developers)", r.RevenueDevsR)
	return []*report.Table{t, c}
}

// Figure15 computes the category revenue shares.
func Figure15(s *Suite) (*Figure15Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	shares, err := pricing.RevenueByCategory(ds)
	if err != nil {
		return nil, err
	}
	var rev, apps, devs []float64
	top4 := 0.0
	for i, cs := range shares {
		rev = append(rev, cs.RevenuePct)
		apps = append(apps, cs.AppsPct)
		devs = append(devs, cs.DevsPct)
		if i < 4 {
			top4 += cs.RevenuePct
		}
	}
	return &Figure15Result{
		Shares:         shares,
		RevenueAppsR:   stats.Pearson(rev, apps),
		RevenueDevsR:   stats.Pearson(rev, devs),
		Top4RevenuePct: top4,
	}, nil
}

// Figure16Result is the developer portfolio study (Figure 16).
type Figure16Result struct {
	// SingleAppPct per class (paper: 60% free, 70% paid).
	FreeSingleAppPct, PaidSingleAppPct float64
	// WithinTenAppsPct (paper: 95% of developers offer < 10 apps).
	FreeWithinTenPct, PaidWithinTenPct float64
	// SingleCategoryPct (paper: 75% free, 85% paid).
	FreeSingleCatPct, PaidSingleCatPct float64
	// WithinFiveCatsPct (paper: 99%).
	FreeWithinFiveCatsPct, PaidWithinFiveCatsPct float64
	// Strategy mix (paper: 75% only-free, 15% only-paid, 10% both).
	OnlyFreePct, OnlyPaidPct, BothPct float64
}

// Tables implements Result.
func (r *Figure16Result) Tables() []*report.Table {
	t := report.NewTable("Figure 16: developer portfolios", "metric", "free devs", "paid devs")
	t.AddRow("% with a single app", r.FreeSingleAppPct, r.PaidSingleAppPct)
	t.AddRow("% with < 10 apps", r.FreeWithinTenPct, r.PaidWithinTenPct)
	t.AddRow("% in a single category", r.FreeSingleCatPct, r.PaidSingleCatPct)
	t.AddRow("% within 5 categories", r.FreeWithinFiveCatsPct, r.PaidWithinFiveCatsPct)
	m := report.NewTable("Pricing strategy mix", "strategy", "% of developers")
	m.AddRow("only free", r.OnlyFreePct)
	m.AddRow("only paid", r.OnlyPaidPct)
	m.AddRow("both", r.BothPct)
	return []*report.Table{t, m}
}

// Figure16 measures portfolio sizes and category focus.
func Figure16(s *Suite) (*Figure16Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	freeApps, paidApps, freeCats, paidCats, err := pricing.PortfolioCDFs(ds)
	if err != nil {
		return nil, err
	}
	onlyFree, onlyPaid, both, err := pricing.PricingMix(ds)
	if err != nil {
		return nil, err
	}
	return &Figure16Result{
		FreeSingleAppPct:      100 * freeApps.At(1),
		PaidSingleAppPct:      100 * paidApps.At(1),
		FreeWithinTenPct:      100 * freeApps.At(9),
		PaidWithinTenPct:      100 * paidApps.At(9),
		FreeSingleCatPct:      100 * freeCats.At(1),
		PaidSingleCatPct:      100 * paidCats.At(1),
		FreeWithinFiveCatsPct: 100 * freeCats.At(5),
		PaidWithinFiveCatsPct: 100 * paidCats.At(5),
		OnlyFreePct:           100 * onlyFree,
		OnlyPaidPct:           100 * onlyPaid,
		BothPct:               100 * both,
	}, nil
}

// Figure17Result is the break-even ad income over time (Figure 17).
type Figure17Result struct {
	Days    []int
	Overall []float64
	ByTier  []map[pricing.PopularityTier]float64
}

// Tables implements Result.
func (r *Figure17Result) Tables() []*report.Table {
	t := report.NewTable("Figure 17: break-even ad income per download over time",
		"day", "average", "popular (top 20%)", "medium (next 50%)", "unpopular (bottom 30%)")
	step := 1
	if len(r.Days) > 15 {
		step = len(r.Days) / 15
	}
	for i := 0; i < len(r.Days); i += step {
		t.AddRow(r.Days[i], r.Overall[i],
			r.ByTier[i][pricing.TierPopular],
			r.ByTier[i][pricing.TierMedium],
			r.ByTier[i][pricing.TierUnpopular])
	}
	return []*report.Table{t}
}

// Figure17 evaluates Eq. 7 across the measurement period.
func Figure17(s *Suite) (*Figure17Result, error) {
	ds, series, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	days, overall, byTier, err := pricing.BreakEvenOverTime(ds.Catalog, series)
	if err != nil {
		return nil, err
	}
	return &Figure17Result{Days: days, Overall: overall, ByTier: byTier}, nil
}

// Figure18Result is the break-even income per category (Figure 18).
type Figure18Result struct {
	// Names and Values are sorted by descending break-even income.
	Names  []string
	Values []float64
}

// Tables implements Result.
func (r *Figure18Result) Tables() []*report.Table {
	t := report.NewTable("Figure 18: break-even ad income per category",
		"category", "necessary ad income ($/download)")
	for i := range r.Names {
		t.AddRow(r.Names[i], r.Values[i])
	}
	return []*report.Table{t}
}

// Figure18 evaluates per-category break-even incomes.
func Figure18(s *Suite) (*Figure18Result, error) {
	ds, _, err := s.pricingDataset()
	if err != nil {
		return nil, err
	}
	byCat, err := pricing.BreakEvenByCategory(ds)
	if err != nil {
		return nil, err
	}
	type pair struct {
		name string
		v    float64
	}
	var pairs []pair
	for cid, v := range byCat {
		pairs = append(pairs, pair{ds.Catalog.Categories[cid].Name, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].name < pairs[j].name
	})
	out := &Figure18Result{}
	for _, p := range pairs {
		out.Names = append(out.Names, p.name)
		out.Values = append(out.Values, p.v)
	}
	return out, nil
}
