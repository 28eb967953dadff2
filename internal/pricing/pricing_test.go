package pricing

import (
	"math"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
	"planetapps/internal/snapshot"
	"planetapps/internal/stats"
)

// slidemeDataset runs a small SlideMe-profile market and returns its final
// state, shared across tests via a package-level cache.
var cachedDS *Dataset
var cachedSeries *snapshot.Series

func slidemeDataset(t *testing.T) (Dataset, *snapshot.Series) {
	t.Helper()
	if cachedDS != nil {
		return *cachedDS, cachedSeries
	}
	cfg := marketsim.DefaultConfig(catalog.Profiles["slideme"])
	cfg.Days = 30
	m, err := marketsim.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ds := Dataset{Catalog: m.Catalog(), Downloads: m.Downloads()}
	cachedDS, cachedSeries = &ds, s
	return ds, s
}

func TestValidate(t *testing.T) {
	if err := (Dataset{}).Validate(); err == nil {
		t.Fatal("nil catalog accepted")
	}
	ds, _ := slidemeDataset(t)
	short := Dataset{Catalog: ds.Catalog, Downloads: ds.Downloads[:1]}
	if err := short.Validate(); err == nil {
		t.Fatal("short downloads accepted")
	}
}

func TestSplitCurvesShapes(t *testing.T) {
	// Figure 11: paid apps follow a clean, steeper power law; free apps
	// are far more popular in volume.
	ds, _ := slidemeDataset(t)
	free, paid := ds.SplitCurves()
	if free.Total() <= paid.Total() {
		t.Fatalf("free volume %v not above paid volume %v", free.Total(), paid.Total())
	}
	if len(paid.Downloads) == 0 {
		t.Fatal("no paid apps")
	}
	fs := free.TrunkExponent(0.02, 0.3)
	ps := paid.TrunkExponent(0.02, 0.3)
	if ps <= fs {
		t.Fatalf("paid trunk slope %v not steeper than free %v (paper: 1.72 vs 0.85)", ps, fs)
	}
}

func TestAnalyzePrices(t *testing.T) {
	ds, _ := slidemeDataset(t)
	pb, err := AnalyzePrices(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Bins) == 0 {
		t.Fatal("no price bins")
	}
	// Figure 12: both correlations negative.
	if pb.PriceDownloadsR >= 0 {
		t.Fatalf("price-downloads correlation %v, want negative", pb.PriceDownloadsR)
	}
	if pb.PriceAppsR >= 0 {
		t.Fatalf("price-apps correlation %v, want negative", pb.PriceAppsR)
	}
	for _, b := range pb.Bins {
		if b.Apps <= 0 {
			t.Fatalf("empty bin reported: %+v", b)
		}
	}
}

func TestAnalyzePricesNoPaid(t *testing.T) {
	cfg := marketsim.DefaultConfig(catalog.Profiles["anzhi"].Scale(0.05))
	cfg.Days = 5
	m, err := marketsim.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ds := Dataset{Catalog: m.Catalog(), Downloads: m.Downloads()}
	if _, err := AnalyzePrices(ds); err == nil {
		t.Fatal("free-only store accepted for price analysis")
	}
}

func TestIncomesAndCDF(t *testing.T) {
	ds, _ := slidemeDataset(t)
	incomes, err := Incomes(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(incomes) == 0 {
		t.Fatal("no paid developers")
	}
	cdf := incomeCDF(incomes)
	// Figure 13's qualitative claims: many developers earn very little,
	// while a small elite earns orders of magnitude more.
	med := cdf.Quantile(0.5)
	top := cdf.Quantile(0.99)
	if top < 20*med+1 {
		t.Fatalf("income distribution not skewed: median %v, p99 %v", med, top)
	}
	for _, inc := range incomes {
		if inc.Income < 0 || inc.PaidApps < 1 {
			t.Fatalf("bad income record %+v", inc)
		}
	}
}

func TestIncomeAppsCorrelationWeak(t *testing.T) {
	// Figure 14: quality over quantity — income is essentially
	// uncorrelated with portfolio size (paper: r = 0.008).
	ds, _ := slidemeDataset(t)
	incomes, err := Incomes(ds)
	if err != nil {
		t.Fatal(err)
	}
	r := IncomeAppsCorrelation(incomes)
	if math.Abs(r) > 0.4 {
		t.Fatalf("income-apps correlation %v, want weak", r)
	}
}

func TestRevenueByCategory(t *testing.T) {
	ds, _ := slidemeDataset(t)
	shares, err := RevenueByCategory(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) == 0 {
		t.Fatal("no category shares")
	}
	var revSum, appSum float64
	for _, s := range shares {
		revSum += s.RevenuePct
		appSum += s.AppsPct
	}
	if math.Abs(revSum-100) > 1e-6 || math.Abs(appSum-100) > 1e-6 {
		t.Fatalf("shares do not sum to 100: rev %v apps %v", revSum, appSum)
	}
	// Figure 15: revenue concentrates in a few categories.
	top4 := 0.0
	for i := 0; i < 4 && i < len(shares); i++ {
		top4 += shares[i].RevenuePct
	}
	if top4 < 50 {
		t.Fatalf("top-4 categories hold %v%% of revenue, want concentration", top4)
	}
	if shares[0].RevenuePct < shares[len(shares)-1].RevenuePct {
		t.Fatal("shares not sorted by revenue")
	}
}

func TestPortfolioCDFs(t *testing.T) {
	ds, _ := slidemeDataset(t)
	freeApps, paidApps, freeCats, paidCats, err := PortfolioCDFs(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 16a: most developers ship one app.
	if freeApps.At(1) < 0.4 || paidApps.At(1) < 0.4 {
		t.Fatalf("single-app fractions: free %v paid %v, want majorities",
			freeApps.At(1), paidApps.At(1))
	}
	// Figure 16b: 99% of developers focus on <= 5 categories.
	if freeCats.At(5) < 0.95 || paidCats.At(5) < 0.95 {
		t.Fatalf("5-category fractions: free %v paid %v", freeCats.At(5), paidCats.At(5))
	}
}

func TestPricingMix(t *testing.T) {
	ds, _ := slidemeDataset(t)
	onlyFree, onlyPaid, both, err := PricingMix(ds)
	if err != nil {
		t.Fatal(err)
	}
	total := onlyFree + onlyPaid + both
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("mix sums to %v", total)
	}
	// §6.3: most developers pick a single strategy, with free dominating.
	if onlyFree < onlyPaid || onlyFree < 0.4 {
		t.Fatalf("mix = %.2f/%.2f/%.2f, want free-dominated", onlyFree, onlyPaid, both)
	}
}

func TestBreakEvenAdIncome(t *testing.T) {
	ds, _ := slidemeDataset(t)
	v, err := BreakEvenAdIncome(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A small per-download amount: the paper reports $0.21; our synthetic
	// store should land within an order of magnitude.
	if v <= 0 || v > 10 {
		t.Fatalf("break-even ad income = %v, want small positive dollars", v)
	}
}

func TestBreakEvenByTierOrdering(t *testing.T) {
	// Figure 17: popular free apps need much less ad income per download
	// than unpopular ones.
	ds, _ := slidemeDataset(t)
	tiers, err := BreakEvenByTier(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !(tiers[TierPopular] < tiers[TierMedium] && tiers[TierMedium] < tiers[TierUnpopular]) {
		t.Fatalf("tier ordering wrong: %v", tiers)
	}
	if tiers[TierUnpopular]/tiers[TierPopular] < 3 {
		t.Fatalf("popular/unpopular spread too small: %v", tiers)
	}
}

func TestBreakEvenByCategorySpread(t *testing.T) {
	// Figure 18: break-even income varies widely across categories.
	ds, _ := slidemeDataset(t)
	byCat, err := BreakEvenByCategory(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(byCat) < 3 {
		t.Fatalf("only %d categories supported the analysis", len(byCat))
	}
	lo, hi := math.Inf(1), 0.0
	for _, v := range byCat {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo < 5 {
		t.Fatalf("category spread %vx too narrow (lo %v, hi %v)", hi/lo, lo, hi)
	}
}

func TestBreakEvenOverTimeDeclines(t *testing.T) {
	// Figure 17: the break-even income drops over time because free-app
	// downloads accumulate faster than paid.
	ds, series := slidemeDataset(t)
	days, overall, byTier, err := BreakEvenOverTime(ds.Catalog, series)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) < 5 {
		t.Fatalf("only %d usable days", len(days))
	}
	if len(byTier) != len(overall) {
		t.Fatal("mismatched outputs")
	}
	first, last := overall[0], overall[len(overall)-1]
	if last > first*1.5 {
		t.Fatalf("break-even income grew substantially over time: %v -> %v", first, last)
	}
}

func TestBreakEvenOverTimeEmptySeries(t *testing.T) {
	ds, _ := slidemeDataset(t)
	if _, _, _, err := BreakEvenOverTime(ds.Catalog, nil); err == nil {
		t.Fatal("nil series accepted")
	}
}

func TestPriceDownloadsTauNegative(t *testing.T) {
	// Kendall's tau is the robust companion to the noisy Pearson on the
	// heavy-tailed downloads; the price penalty must show in the ranks.
	ds, _ := slidemeDataset(t)
	pb, err := AnalyzePrices(ds)
	if err != nil {
		t.Fatal(err)
	}
	if pb.PriceDownloadsTau >= 0 {
		t.Fatalf("price-downloads tau = %v, want negative", pb.PriceDownloadsTau)
	}
}

// incomeCDF returns the empirical CDF of developer incomes (Figure 13).
func incomeCDF(incomes []DeveloperIncome) *stats.ECDF {
	vals := make([]float64, len(incomes))
	for i, d := range incomes {
		vals[i] = d.Income
	}
	return stats.NewECDF(vals)
}
