// Package pricing implements the paper's §6 analysis of app pricing and
// developer income over a store catalog with measured downloads: free-vs-
// paid popularity curves, price/popularity correlation, developer income
// distribution, per-category revenue shares, and the break-even ad income
// comparison between the two revenue strategies (Eq. 7).
package pricing

import (
	"fmt"
	"sort"

	"planetapps/internal/catalog"
	"planetapps/internal/dist"
	"planetapps/internal/stats"
)

// Dataset couples a catalog with per-app cumulative downloads (typically a
// market simulation's final day or a crawled snapshot).
type Dataset struct {
	Catalog   *catalog.Catalog
	Downloads []int64
}

// Validate checks the downloads slice covers the catalog.
func (d Dataset) Validate() error {
	if d.Catalog == nil {
		return fmt.Errorf("pricing: nil catalog")
	}
	if len(d.Downloads) < d.Catalog.NumApps() {
		return fmt.Errorf("pricing: %d download counts for %d apps",
			len(d.Downloads), d.Catalog.NumApps())
	}
	return nil
}

// SplitCurves returns the separate rank-downloads curves of free and paid
// apps (Figure 11).
func (d Dataset) SplitCurves() (free, paid dist.RankCurve) {
	var fv, pv []float64
	for i := range d.Catalog.Apps {
		v := float64(d.Downloads[i])
		if d.Catalog.Apps[i].Pricing == catalog.Paid {
			pv = append(pv, v)
		} else {
			fv = append(fv, v)
		}
	}
	return dist.NewRankCurve(fv), dist.NewRankCurve(pv)
}

// PriceBins groups paid apps into $1-wide price bins and reports, per bin,
// the number of apps and the mean downloads (Figure 12's two panels).
type PriceBins struct {
	// Bins[i] covers prices [i, i+1).
	Bins []PriceBin
	// PriceDownloadsR is the Pearson correlation between per-app price and
	// downloads (paper: -0.229).
	PriceDownloadsR float64
	// PriceDownloadsTau is Kendall's tau-b over the same pairs — robust to
	// the heavy download tail that makes the Pearson coefficient noisy at
	// simulation scale.
	PriceDownloadsTau float64
	// PriceAppsR is the Pearson correlation between bin price and bin app
	// count (paper: -0.240).
	PriceAppsR float64
}

// PriceBin is one $1 price bucket.
type PriceBin struct {
	LowPrice      float64
	Apps          int
	MeanDownloads float64
}

// AnalyzePrices computes Figure 12 from the dataset's paid apps.
func AnalyzePrices(d Dataset) (PriceBins, error) {
	if err := d.Validate(); err != nil {
		return PriceBins{}, err
	}
	const maxPrice = 50
	h := stats.NewHistogram(0, 1, maxPrice)
	var prices, downloads []float64
	for i := range d.Catalog.Apps {
		a := &d.Catalog.Apps[i]
		if a.Pricing != catalog.Paid {
			continue
		}
		dl := float64(d.Downloads[i])
		h.Add(a.Price, dl)
		prices = append(prices, a.Price)
		downloads = append(downloads, dl)
	}
	if len(prices) == 0 {
		return PriceBins{}, fmt.Errorf("pricing: no paid apps in dataset")
	}
	pb := PriceBins{
		PriceDownloadsR:   stats.Pearson(prices, downloads),
		PriceDownloadsTau: stats.KendallTau(prices, downloads),
	}
	var binPrices, binCounts []float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		pb.Bins = append(pb.Bins, PriceBin{
			LowPrice:      float64(i),
			Apps:          n,
			MeanDownloads: h.MeanIn(i),
		})
		binPrices = append(binPrices, float64(i))
		binCounts = append(binCounts, float64(n))
	}
	pb.PriceAppsR = stats.Pearson(binPrices, binCounts)
	return pb, nil
}

// DeveloperIncome is one developer's paid-app earnings.
type DeveloperIncome struct {
	Dev catalog.DevID
	// PaidApps is the developer's paid-app count.
	PaidApps int
	// Income is total downloads × price over the developer's paid apps.
	// The paper credits developers the full price (SlideMe's 5% commission
	// is noted but ignored "for simplicity").
	Income float64
}

// Incomes returns per-developer income for developers with at least one
// paid app, sorted by developer ID.
func Incomes(d Dataset) ([]DeveloperIncome, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	byDev := map[catalog.DevID]*DeveloperIncome{}
	for i := range d.Catalog.Apps {
		a := &d.Catalog.Apps[i]
		if a.Pricing != catalog.Paid {
			continue
		}
		di := byDev[a.Dev]
		if di == nil {
			di = &DeveloperIncome{Dev: a.Dev}
			byDev[a.Dev] = di
		}
		di.PaidApps++
		di.Income += float64(d.Downloads[i]) * a.Price
	}
	out := make([]DeveloperIncome, 0, len(byDev))
	for _, di := range byDev {
		out = append(out, *di)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dev < out[j].Dev })
	return out, nil
}

// IncomeAppsCorrelation returns the Pearson correlation between a
// developer's paid-app count and income (Figure 14; paper: 0.008).
func IncomeAppsCorrelation(incomes []DeveloperIncome) float64 {
	var apps, inc []float64
	for _, d := range incomes {
		apps = append(apps, float64(d.PaidApps))
		inc = append(inc, d.Income)
	}
	return stats.Pearson(apps, inc)
}

// CategoryShare is one Figure 15 bar group: a category's percentage of
// total paid revenue, of paid apps, and of developers active in it.
type CategoryShare struct {
	Category   catalog.CategoryID
	Name       string
	RevenuePct float64
	AppsPct    float64
	DevsPct    float64
}

// RevenueByCategory computes per-category revenue/apps/developer shares
// over paid apps, sorted by descending revenue share (Figure 15).
func RevenueByCategory(d Dataset) ([]CategoryShare, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	nCat := len(d.Catalog.Categories)
	revenue := make([]float64, nCat)
	apps := make([]float64, nCat)
	devs := make([]map[catalog.DevID]struct{}, nCat)
	var totalRev, totalApps float64
	totalDevs := map[catalog.DevID]struct{}{}
	for i := range d.Catalog.Apps {
		a := &d.Catalog.Apps[i]
		if a.Pricing != catalog.Paid {
			continue
		}
		c := int(a.Category)
		rev := float64(d.Downloads[i]) * a.Price
		revenue[c] += rev
		totalRev += rev
		apps[c]++
		totalApps++
		if devs[c] == nil {
			devs[c] = map[catalog.DevID]struct{}{}
		}
		devs[c][a.Dev] = struct{}{}
		totalDevs[a.Dev] = struct{}{}
	}
	if totalApps == 0 {
		return nil, fmt.Errorf("pricing: no paid apps in dataset")
	}
	out := make([]CategoryShare, 0, nCat)
	for c := 0; c < nCat; c++ {
		if apps[c] == 0 {
			continue
		}
		cs := CategoryShare{
			Category: catalog.CategoryID(c),
			Name:     d.Catalog.Categories[c].Name,
			AppsPct:  100 * apps[c] / totalApps,
		}
		if totalRev > 0 {
			cs.RevenuePct = 100 * revenue[c] / totalRev
		}
		if len(totalDevs) > 0 {
			cs.DevsPct = 100 * float64(len(devs[c])) / float64(len(totalDevs))
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RevenuePct > out[j].RevenuePct })
	return out, nil
}

// PortfolioCDFs returns the per-developer app-count distributions for free
// and paid apps (Figure 16a) and the per-developer unique-category counts
// (Figure 16b).
func PortfolioCDFs(d Dataset) (freeApps, paidApps, freeCats, paidCats *stats.ECDF, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	type agg struct {
		free, paid int
		freeCats   map[catalog.CategoryID]struct{}
		paidCats   map[catalog.CategoryID]struct{}
	}
	byDev := map[catalog.DevID]*agg{}
	for i := range d.Catalog.Apps {
		a := &d.Catalog.Apps[i]
		g := byDev[a.Dev]
		if g == nil {
			g = &agg{freeCats: map[catalog.CategoryID]struct{}{}, paidCats: map[catalog.CategoryID]struct{}{}}
			byDev[a.Dev] = g
		}
		if a.Pricing == catalog.Paid {
			g.paid++
			g.paidCats[a.Category] = struct{}{}
		} else {
			g.free++
			g.freeCats[a.Category] = struct{}{}
		}
	}
	var fa, pa, fc, pc []float64
	for _, g := range byDev {
		if g.free > 0 {
			fa = append(fa, float64(g.free))
			fc = append(fc, float64(len(g.freeCats)))
		}
		if g.paid > 0 {
			pa = append(pa, float64(g.paid))
			pc = append(pc, float64(len(g.paidCats)))
		}
	}
	return stats.NewECDF(fa), stats.NewECDF(pa), stats.NewECDF(fc), stats.NewECDF(pc), nil
}

// PricingMix reports the fractions of developers offering only free apps,
// only paid apps, or both (§6.3; paper: 75% / 15% / 10%).
func PricingMix(d Dataset) (onlyFree, onlyPaid, both float64, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, 0, err
	}
	type mix struct{ free, paid bool }
	byDev := map[catalog.DevID]*mix{}
	for i := range d.Catalog.Apps {
		a := &d.Catalog.Apps[i]
		m := byDev[a.Dev]
		if m == nil {
			m = &mix{}
			byDev[a.Dev] = m
		}
		if a.Pricing == catalog.Paid {
			m.paid = true
		} else {
			m.free = true
		}
	}
	if len(byDev) == 0 {
		return 0, 0, 0, fmt.Errorf("pricing: no developers")
	}
	n := float64(len(byDev))
	for _, m := range byDev {
		switch {
		case m.free && m.paid:
			both++
		case m.paid:
			onlyPaid++
		default:
			onlyFree++
		}
	}
	return onlyFree / n, onlyPaid / n, both / n, nil
}
