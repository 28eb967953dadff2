package experiments

import (
	"strings"
	"testing"

	"planetapps/internal/model"
	"planetapps/internal/pricing"
)

// testSuite is shared across tests: a reduced-scale but still shape-
// preserving configuration.
var sharedSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite != nil {
		return sharedSuite
	}
	s, err := NewSuite(Config{Seed: 7, Scale: 0.5, Days: 30, CommentUsers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	sharedSuite = s
	return s
}

func TestNewSuiteValidation(t *testing.T) {
	if _, err := NewSuite(Config{Scale: 0, Days: 30, CommentUsers: 1000}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := NewSuite(Config{Scale: 1, Days: 1, CommentUsers: 1000}); err == nil {
		t.Fatal("1-day period accepted")
	}
	if _, err := NewSuite(Config{Scale: 1, Days: 30, CommentUsers: 1}); err == nil {
		t.Fatal("tiny comment population accepted")
	}
}

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
		"F10", "F11", "F12", "F13", "F14", "F15", "F16", "F17", "F18", "F19",
		"X1", "X2", "X3", "X4", "X5"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	s := suite(t)
	if _, err := Run(s, "F999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestMarketCaching(t *testing.T) {
	s := suite(t)
	a, err := s.Store("anzhi")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Store("anzhi")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("market runs not cached")
	}
	if _, err := s.Store("nosuchstore"); err == nil {
		t.Fatal("unknown store accepted")
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.DownloadsLast <= row.DownloadsFirst {
			t.Fatalf("%s: downloads did not grow", row.Store)
		}
		if row.DailyDownloads <= 0 || row.NewAppsPerDay < 0 {
			t.Fatalf("%s: bad rates %+v", row.Store, row)
		}
	}
	if txt := r.Tables()[0].String(); !strings.Contains(txt, "anzhi") {
		t.Fatal("render missing store names")
	}
}

func TestFigure2ParetoEffect(t *testing.T) {
	r, err := Figure2(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range r.Order {
		shares := r.Share[store]
		// Top 10% (index of 10 in RankPcts) holds the majority.
		var top10 float64
		for i, p := range r.RankPcts {
			if p == 10 {
				top10 = shares[i]
			}
		}
		if top10 < 55 {
			t.Fatalf("%s: top-10%% share %v%%, want Pareto effect", store, top10)
		}
		last := shares[len(shares)-1]
		if last < 99.9 {
			t.Fatalf("%s: 100%% of apps hold %v%% of downloads", store, last)
		}
	}
}

func TestFigure3Truncation(t *testing.T) {
	r, err := Figure3(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stores) != 4 {
		t.Fatalf("%d stores", len(r.Stores))
	}
	for _, st := range r.Stores {
		if st.TrunkExponent <= 0.3 || st.TrunkExponent > 3 {
			t.Fatalf("%s: trunk exponent %v implausible", st.Store, st.TrunkExponent)
		}
		// The tail should drop below the trunk power law (clustering
		// effect + discreteness).
		if st.TailDrop >= 1.3 {
			t.Fatalf("%s: tail drop %v shows no truncation", st.Store, st.TailDrop)
		}
	}
}

func TestFigure4UpdateBehaviour(t *testing.T) {
	r, err := Figure4(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range r.Stores {
		if st.NoUpdatePct < 70 {
			t.Fatalf("%s: only %v%% never updated", st.Store, st.NoUpdatePct)
		}
		if st.P99Updates > 8 {
			t.Fatalf("%s: p99 updates %v too high", st.Store, st.P99Updates)
		}
		for k := 1; k < len(st.CDF); k++ {
			if st.CDF[k] < st.CDF[k-1] {
				t.Fatalf("%s: update CDF not monotone", st.Store)
			}
		}
	}
}

func TestFigure5Behaviour(t *testing.T) {
	r, err := Figure5(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5(a): nearly all users post few comments.
	last := r.CommentsPerUserCDF[len(r.CommentsPerUserCDF)-1]
	if last < 0.95 {
		t.Fatalf("P(comments<=30) = %v", last)
	}
	// Figure 5(b): category focus.
	if r.SingleCategoryPct < 25 || r.WithinFiveCatsPct < 80 {
		t.Fatalf("category focus too weak: single=%v%% within5=%v%%",
			r.SingleCategoryPct, r.WithinFiveCatsPct)
	}
	// Figure 5(c): top-1 category holds the majority of comments.
	if r.TopKSharePct[0] < 50 {
		t.Fatalf("top-1 category share %v%%", r.TopKSharePct[0])
	}
	// Figure 5(d): no dominant category.
	if r.CategoryDownloadPct[0] > 35 {
		t.Fatalf("dominant category with %v%% of downloads", r.CategoryDownloadPct[0])
	}
}

func TestFigure6Affinity(t *testing.T) {
	r, err := Figure6(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	an := r.Analysis
	// Measured affinity far above the random-walk baseline at depth 1.
	if an.OverallMean[0] < 2.5*an.RandomWalk[0] {
		t.Fatalf("affinity %v vs baseline %v: effect too weak",
			an.OverallMean[0], an.RandomWalk[0])
	}
	// Affinity grows with depth.
	for d := 1; d < len(an.Depths); d++ {
		if an.OverallMean[d] < an.OverallMean[d-1]-0.03 {
			t.Fatalf("affinity fell with depth: %v", an.OverallMean)
		}
	}
	if len(an.Groups[0]) == 0 {
		t.Fatal("no grouped points")
	}
}

func TestFigure7Medians(t *testing.T) {
	r, err := Figure7(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Medians[0] <= r.Medians[1]+0.05 && r.Medians[1] <= r.Medians[2]+0.05) {
		t.Fatalf("medians not increasing: %v", r.Medians)
	}
	for di := range r.Analysis.Depths {
		if r.Medians[di] < r.Analysis.RandomWalk[di] {
			t.Fatalf("median below random walk at depth %d", di+1)
		}
	}
}

func TestFigure8ClusteringWins(t *testing.T) {
	r, err := Figure8(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Strict wins on the dense stores; the sparse 1mobile profile may tie
	// ZIPF-at-most-once within 25% (its fits are the noisiest in the
	// paper too).
	if !r.bestIsClustering(1.25) {
		for _, st := range r.Stores {
			t.Logf("%s: %v", st.Store, st.Fits)
		}
		t.Fatal("APP-CLUSTERING not within tolerance of best on every store")
	}
	strict := &Figure8Result{}
	for _, st := range r.Stores {
		if st.Store != "1mobile" {
			strict.Stores = append(strict.Stores, st)
		}
	}
	if !strict.bestIsClustering(1.0) {
		for _, st := range strict.Stores {
			t.Logf("%s: %v", st.Store, st.Fits)
		}
		t.Fatal("APP-CLUSTERING did not strictly win on the dense stores")
	}
}

func TestFigure9ClusteringAlwaysBest(t *testing.T) {
	r, err := Figure9(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 stores x first/last)", len(r.Rows))
	}
	// Strict wins on the mature (last-day) snapshots of the dense stores;
	// near-ties tolerated on the noisy first-day snapshots and on the
	// sparse 1mobile profile, as in the paper's own Figure 9 where anzhi's
	// first-day fits were nearly tied and 1Mobile's were the noisiest.
	for _, row := range r.Rows {
		c := row.Distances["APP-CLUSTERING"]
		slack := 1.0
		if row.Edge == "first" || row.Store == "1mobile" {
			slack = 1.25
		}
		if c > slack*row.Distances["ZIPF"] || c > slack*row.Distances["ZIPF-at-most-once"] {
			t.Fatalf("APP-CLUSTERING not best on %s %s: %+v", row.Store, row.Edge, row.Distances)
		}
	}
	if !r.clusteringAlwaysBest(1.25) {
		t.Fatalf("APP-CLUSTERING not within tolerance everywhere: %+v", r.Rows)
	}
}

func TestFigure10MinimumNearOne(t *testing.T) {
	r, err := Figure10(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range r.Order {
		f := r.argminFraction(store)
		if f < 0.25 || f > 5 {
			t.Fatalf("%s: distance minimized at users fraction %v (distances %v)",
				store, f, r.Distance[store])
		}
	}
}

func TestFigure11PaidSteeper(t *testing.T) {
	r, err := Figure11(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.PaidTrunk <= r.FreeTrunk {
		t.Fatalf("paid trunk %v not steeper than free %v", r.PaidTrunk, r.FreeTrunk)
	}
	if r.Free.Total() <= r.Paid.Total() {
		t.Fatal("free volume not above paid volume")
	}
}

func TestFigure12NegativeCorrelations(t *testing.T) {
	r, err := Figure12(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Bins.PriceDownloadsR >= 0 || r.Bins.PriceAppsR >= 0 {
		t.Fatalf("correlations not negative: %v %v", r.Bins.PriceDownloadsR, r.Bins.PriceAppsR)
	}
}

func TestFigure13SkewedIncome(t *testing.T) {
	r, err := Figure13(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Percentiles[99] < 20*r.Percentiles[50]+1 {
		t.Fatalf("income not skewed: %v", r.Percentiles)
	}
	if r.Percentiles[10] > r.Percentiles[50] {
		t.Fatal("percentiles not monotone")
	}
}

func TestFigure14QualityOverQuantity(t *testing.T) {
	r, err := Figure14(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Correlation > 0.4 || r.Correlation < -0.4 {
		t.Fatalf("income-apps correlation %v, want near zero", r.Correlation)
	}
}

func TestFigure15Concentration(t *testing.T) {
	r, err := Figure15(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Top4RevenuePct < 50 {
		t.Fatalf("top-4 revenue %v%%, want concentration", r.Top4RevenuePct)
	}
}

func TestFigure16Portfolios(t *testing.T) {
	r, err := Figure16(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.FreeSingleAppPct < 40 || r.PaidSingleAppPct < 40 {
		t.Fatalf("single-app shares too low: %v / %v", r.FreeSingleAppPct, r.PaidSingleAppPct)
	}
	if r.FreeWithinFiveCatsPct < 95 || r.PaidWithinFiveCatsPct < 95 {
		t.Fatalf("five-category shares too low: %v / %v",
			r.FreeWithinFiveCatsPct, r.PaidWithinFiveCatsPct)
	}
	if r.OnlyFreePct < r.OnlyPaidPct {
		t.Fatal("free-only developers should dominate")
	}
}

func TestFigure17TierOrdering(t *testing.T) {
	r, err := Figure17(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Days) == 0 {
		t.Fatal("no usable days")
	}
	lastTiers := r.ByTier[len(r.ByTier)-1]
	if !(lastTiers[pricing.TierPopular] < lastTiers[pricing.TierMedium] &&
		lastTiers[pricing.TierMedium] < lastTiers[pricing.TierUnpopular]) {
		t.Fatalf("tier ordering wrong: %v", lastTiers)
	}
}

func TestFigure18Spread(t *testing.T) {
	r, err := Figure18(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) < 3 {
		t.Fatalf("only %d categories", len(r.Values))
	}
	if r.Values[0] <= r.Values[len(r.Values)-1] {
		t.Fatal("values not sorted descending")
	}
	if r.Values[0]/r.Values[len(r.Values)-1] < 5 {
		t.Fatalf("category spread too narrow: %v", r.Values)
	}
}

func TestFigure19ClusteringLowest(t *testing.T) {
	r, err := Figure19(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.clusteringLowest() {
		t.Fatalf("clustering not lowest everywhere: %+v", r.Points)
	}
	// Hit ratios grow with cache size for the clustering model.
	prev := -1.0
	for _, p := range r.Points {
		c := p.HitRatio[model.AppClustering.String()]
		if c < prev-2 {
			t.Fatalf("hit ratio fell with cache size: %+v", r.Points)
		}
		prev = c
	}
}

func TestAblationX1(t *testing.T) {
	r, err := AblationX1(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	// p=0 is closest to the AMO run; tail share shrinks as p rises.
	p0 := byLabel["p=0 (degenerates to AMO)"]
	p9 := byLabel["p=0.9"]
	if p0.DistanceToAMO > p9.DistanceToAMO {
		t.Fatalf("p=0 distance %v above p=0.9 distance %v", p0.DistanceToAMO, p9.DistanceToAMO)
	}
	if p9.TailShare >= p0.TailShare {
		t.Fatalf("tail share did not shrink with p: %v vs %v", p9.TailShare, p0.TailShare)
	}
}

func TestCachePoliciesX2(t *testing.T) {
	r, err := CachePoliciesX2(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	lru := r.HitRatio("LRU")
	ca := r.HitRatio("CategoryAware")
	if lru < 0 || ca < 0 {
		t.Fatalf("missing policies: %+v", r.Results)
	}
	if ca <= lru {
		t.Fatalf("category-aware %v%% did not beat LRU %v%%", ca, lru)
	}
}

func TestPrefetchX3(t *testing.T) {
	r, err := PrefetchX3(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	none := r.HitRate("none")
	gt := r.HitRate("popularity")
	ct := r.HitRate("category-top")
	if none != 0 {
		t.Fatalf("no-prefetch hit rate %v", none)
	}
	if !(ct > gt && gt > 0) {
		t.Fatalf("expected category-top > global-top > 0, got %v vs %v", ct, gt)
	}
}

func TestRecommendX4(t *testing.T) {
	r, err := RecommendX4(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	pop := r.HitRate("popularity")
	ca := r.HitRate("cluster-aware")
	cf := r.HitRate("collaborative")
	if pop < 0 || ca < 0 || cf < 0 {
		t.Fatalf("missing recommenders: %+v", r.Results)
	}
	// §7's argument: exploiting the clustering effect beats plain
	// popularity suggestions.
	if ca <= pop {
		t.Fatalf("cluster-aware %v%% did not beat popularity %v%%", ca, pop)
	}
	for _, res := range r.Results {
		if res.Trials == 0 {
			t.Fatalf("%s evaluated zero trials", res.Recommender)
		}
	}
}

func TestSensitivityX5(t *testing.T) {
	r, err := SensitivityX5(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Fitted p must not decrease as the planted p rises, and the strongest
	// plant must fit a clearly clustered model better than AMO.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].FittedP < r.Rows[i-1].FittedP-0.21 {
			t.Fatalf("fitted p not tracking planted p: %+v", r.Rows)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Advantage < 1.2 {
		t.Fatalf("at planted p=0.9 clustering advantage only %vx", last.Advantage)
	}
}

// bestIsClustering reports whether APP-CLUSTERING won on every store within
// the tolerance factor slack (1 = strict win). Sparse stores (1mobile-like,
// few downloads per app) produce near-ties between APP-CLUSTERING and
// ZIPF-at-most-once, as in the paper's own noisier 1Mobile fits.
func (r *Figure8Result) bestIsClustering(slack float64) bool {
	for _, st := range r.Stores {
		var cl, best float64 = -1, -1
		for _, f := range st.Fits {
			if f.Kind == model.AppClustering {
				cl = f.Distance
			}
			if best < 0 || f.Distance < best {
				best = f.Distance
			}
		}
		if cl < 0 || cl > slack*best {
			return false
		}
	}
	return true
}

// clusteringAlwaysBest reports whether APP-CLUSTERING had the smallest
// distance on every dataset, within a tolerance factor: slack = 1 demands a
// strict win everywhere; slack = 1.25 tolerates near-ties. The paper's own
// Figure 9 contains such near-ties (anzhi first-day: 0.14 vs ~0.15 for
// ZIPF-at-most-once), and low-volume early snapshots of the simulated
// stores are the noisiest datasets here as well.
func (r *Figure9Result) clusteringAlwaysBest(slack float64) bool {
	for _, row := range r.Rows {
		c := row.Distances[model.AppClustering.String()]
		if c > slack*row.Distances[model.Zipf.String()] || c > slack*row.Distances[model.ZipfAtMostOnce.String()] {
			return false
		}
	}
	return true
}

// argminFraction returns the fraction minimizing distance for a store.
func (r *Figure10Result) argminFraction(store string) float64 {
	ds := r.Distance[store]
	best := 0
	for i := range ds {
		if ds[i] < ds[best] {
			best = i
		}
	}
	return r.Fractions[best]
}

// clusteringLowest reports whether APP-CLUSTERING had the lowest hit ratio
// at every cache size, the paper's key observation.
func (r *Figure19Result) clusteringLowest() bool {
	for _, p := range r.Points {
		c := p.HitRatio[model.AppClustering.String()]
		if c >= p.HitRatio[model.Zipf.String()] || c >= p.HitRatio[model.ZipfAtMostOnce.String()] {
			return false
		}
	}
	return true
}
