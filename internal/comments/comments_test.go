package comments

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"planetapps/internal/affinity"
	"planetapps/internal/catalog"
	"planetapps/internal/rng"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	p := catalog.Profiles["anzhi"].Scale(0.1)
	c, err := catalog.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCatalog(t)
	cfg := DefaultGenConfig(500)
	a, err := Generate(c, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("comment %d differs", i)
		}
	}
}

func TestGenerateTimeOrdered(t *testing.T) {
	c := testCatalog(t)
	cs, err := Generate(c, DefaultGenConfig(300), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Time.Before(cs[i-1].Time) {
			t.Fatalf("comments out of order at %d", i)
		}
	}
}

// TestTimeOrderIsTheReflectiveSortsOrder: Generate orders its population by
// sorting one (instant, position) key a comment and moving each comment once,
// where it called sort.SliceStable, then slices.SortStableFunc, on the
// comments themselves; every crawl database and comment stream on record was
// produced in that order. A stable sort has one answer, so they must agree
// comment for comment — on a generated population put back out of order with
// its timestamps cut to the day, so that most of them tie (a generated one
// has few that do), on instants that differ below the second, and on
// populations of one and of none.
func TestTimeOrderIsTheReflectiveSortsOrder(t *testing.T) {
	cs, err := Generate(testCatalog(t), DefaultGenConfig(4000), 11)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	ties := 0
	for i := range cs {
		cs[i].Time = cs[i].Time.Truncate(24 * time.Hour)
		if i%7 == 0 {
			cs[i].Time = cs[i].Time.Add(time.Duration(i%3) * time.Nanosecond)
		}
		if i > 0 && cs[i].Time.Equal(cs[i-1].Time) {
			ties++
		}
	}
	reflective := func(cs []Comment) []Comment {
		want := slices.Clone(cs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
		return want
	}
	got, want := sortByTime(cs), reflective(cs)
	if !slices.Equal(got, want) {
		t.Fatalf("the key sort and sort.SliceStable order %d comments differently", len(cs))
	}
	if slices.Equal(got, cs) || ties == 0 {
		t.Fatalf("the input was already in order (%d adjacent ties): nothing was compared", ties)
	}
	if cap(got) != len(got) {
		t.Fatalf("%d comments returned in room for %d", len(got), cap(got))
	}
	if one := sortByTime(cs[:1]); len(one) != 1 || one[0] != cs[0] {
		t.Fatalf("a population of one came back as %v", one)
	}
	if none := sortByTime(nil); len(none) != 0 {
		t.Fatalf("a population of none came back as %v", none)
	}
}

func TestGenerateCommentCountTail(t *testing.T) {
	// Figure 5(a): most users post few comments; 99% post <= ~30.
	c := testCatalog(t)
	cfg := DefaultGenConfig(3000)
	cs, err := Generate(c, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := PerUserCounts(Filter(cs, 0))
	var vals []float64
	for _, n := range counts {
		vals = append(vals, float64(n))
	}
	sort.Float64s(vals)
	p99 := vals[int(0.99*float64(len(vals)))]
	if p99 > 60 {
		t.Fatalf("99th percentile comment count = %v, want modest", p99)
	}
	// The raw stream should include spam users far above that.
	raw := PerUserCounts(cs)
	maxN := 0
	for _, n := range raw {
		if n > maxN {
			maxN = n
		}
	}
	if maxN < 100 {
		t.Fatalf("max raw comment count = %d, expected spam users with hundreds", maxN)
	}
}

func TestFilterDropsSpamAndUnrated(t *testing.T) {
	c := testCatalog(t)
	cfg := DefaultGenConfig(2000)
	cs, err := Generate(c, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	filtered := Filter(cs, 80)
	if len(filtered) >= len(cs) {
		t.Fatal("filter removed nothing")
	}
	counts := PerUserCounts(filtered)
	for u, n := range counts {
		if n > 80 {
			t.Fatalf("user %d kept %d comments after filter", u, n)
		}
	}
	for _, cm := range filtered {
		if cm.Rating <= 0 {
			t.Fatal("unrated comment survived filter")
		}
	}
}

func TestAppStringsCompressSuccessive(t *testing.T) {
	c := testCatalog(t)
	cs := []Comment{
		{User: 1, App: 10, Rating: 5, Time: c.Start},
		{User: 1, App: 10, Rating: 4, Time: c.Start.Add(1)},
		{User: 1, App: 20, Rating: 3, Time: c.Start.Add(2)},
		{User: 1, App: 10, Rating: 3, Time: c.Start.Add(3)},
	}
	s := AppStrings(cs)
	got := s[1]
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 10 {
		t.Fatalf("app string = %v", got)
	}
}

func TestClusteringEffectRecoverable(t *testing.T) {
	// End-to-end §4 check: generate comments with planted ClusterP, run
	// the affinity pipeline, and verify measured affinity near the plant
	// and far above the random-walk baseline.
	c := testCatalog(t)
	cs, err := Generate(c, DefaultGenConfig(4000), 17)
	if err != nil {
		t.Fatal(err)
	}
	filtered := Filter(cs, 80)
	catStrings := CategoryStrings(c, AppStrings(filtered))
	an, err := affinity.Analyze(catStrings, c.CategorySizes(), []int{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Measured depth-1 affinity should be near the planted stay
	// probability (plus a small random-match term).
	if an.OverallMean[0] < 0.4 || an.OverallMean[0] > 0.75 {
		t.Fatalf("depth-1 affinity = %v, want near planted 0.55", an.OverallMean[0])
	}
	if an.OverallMean[0] < 2.5*an.RandomWalk[0] {
		t.Fatalf("affinity %v not well above baseline %v", an.OverallMean[0], an.RandomWalk[0])
	}
	// Medians grow with depth (Figure 7: 0.5, 0.58, 0.67).
	if !(an.Medians[0] <= an.Medians[1]+0.05 && an.Medians[1] <= an.Medians[2]+0.05) {
		t.Fatalf("medians not increasing with depth: %v", an.Medians)
	}
}

func TestUniqueCategoriesPerUser(t *testing.T) {
	// Figure 5(b): with the clustering effect most users touch few
	// categories.
	c := testCatalog(t)
	cfg := DefaultGenConfig(3000)
	cs, err := Generate(c, cfg, 19)
	if err != nil {
		t.Fatal(err)
	}
	uniq := UniqueCategoriesPerUser(c, Filter(cs, 80))
	total, small := 0, 0
	for _, n := range uniq {
		total++
		if n <= 5 {
			small++
		}
	}
	if frac := float64(small) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of users within 5 categories; want most", frac*100)
	}
}

func TestTopKShare(t *testing.T) {
	c := testCatalog(t)
	cfg := DefaultGenConfig(3000)
	cs, err := Generate(c, cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	shares := TopKShare(c, Filter(cs, 80), 5)
	if len(shares) != 5 {
		t.Fatalf("got %d shares", len(shares))
	}
	for k := 1; k < len(shares); k++ {
		if shares[k] < shares[k-1] {
			t.Fatalf("top-k share not monotone: %v", shares)
		}
	}
	if shares[0] < 40 || shares[0] > 95 {
		t.Fatalf("top-1 share = %v%%, want a majority (paper: 66%%)", shares[0])
	}
	if shares[4] < 85 {
		t.Fatalf("top-5 share = %v%%, want ~95%%", shares[4])
	}
}

func TestDownloadsPerCategoryNoDominant(t *testing.T) {
	c := testCatalog(t)
	cfg := DefaultGenConfig(4000)
	cs, err := Generate(c, cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	shares := DownloadsPerCategory(c, Filter(cs, 80))
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares[0] > 40 {
		t.Fatalf("dominant category holds %v%% of comments; want no dominant category", shares[0])
	}
}

func TestGenerateErrors(t *testing.T) {
	c := testCatalog(t)
	bad := DefaultGenConfig(0)
	if _, err := Generate(c, bad, 1); err == nil {
		t.Fatal("zero users accepted")
	}
	bad = DefaultGenConfig(10)
	bad.Days = 0
	if _, err := Generate(c, bad, 1); err == nil {
		t.Fatal("zero days accepted")
	}
}
