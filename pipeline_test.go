package planetapps_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"planetapps/internal/affinity"
	"planetapps/internal/cache"
	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/dist"
	"planetapps/internal/experiments"
	"planetapps/internal/marketsim"
	"planetapps/internal/model"
	"planetapps/internal/pricing"
	"planetapps/internal/proxy"
	"planetapps/internal/stats"
	"planetapps/internal/storeserver"
)

// TestEndToEndPipeline exercises the paper's full methodology in one test:
// a synthetic store served over HTTP, crawled daily through a proxy fleet
// into a database, with the popularity, model-fit and affinity analyses
// run on the crawled data — asserting the paper's headline claims survive
// the entire measurement path, not just the in-memory shortcuts.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is slow")
	}
	// --- Store ----------------------------------------------------------
	mcfg := marketsim.DefaultConfig(catalog.Profiles["anzhi"].Scale(0.2))
	mcfg.Days = 8
	market, err := marketsim.New(mcfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	store := storeserver.New(market, storeserver.DefaultConfig())
	cs, err := comments.Generate(market.Catalog(), comments.DefaultGenConfig(4000), 78)
	if err != nil {
		t.Fatal(err)
	}
	store.SetComments(cs)
	ts := httptest.NewServer(store.Handler())
	defer ts.Close()

	// --- Proxy fleet ------------------------------------------------------
	var urls []string
	for i := 0; i < 2; i++ {
		p := proxy.New("node", "cn")
		ps := httptest.NewServer(p.Handler())
		defer ps.Close()
		urls = append(urls, ps.URL)
	}
	pool, err := proxy.NewPool(urls)
	if err != nil {
		t.Fatal(err)
	}

	// --- Crawl 4 days -----------------------------------------------------
	ccfg := crawler.DefaultConfig(ts.URL)
	ccfg.Proxies = pool
	ccfg.FetchComments = true
	c, err := crawler.New(ccfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	lastDay := 0
	for day := 0; day < 4; day++ {
		if day > 0 {
			if err := store.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := c.CrawlDay(context.Background())
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		lastDay = st.Day
	}

	// --- Popularity claims from crawled data ------------------------------
	_, downloads := c.DB().DownloadsOnDay(lastDay)
	curve := positiveCurve(downloads)
	if share := stats.TopShare(curve.Downloads, 0.10); share < 0.55 {
		t.Fatalf("crawled Pareto share %v too weak", share)
	}
	if slope := curve.TrunkExponent(0.02, 0.3); slope < 0.7 || slope > 2.5 {
		t.Fatalf("crawled trunk slope %v implausible", slope)
	}

	// --- Model identification on crawled data -----------------------------
	fits, err := model.FitAllMC(curve, model.DefaultFitSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var cl, best float64 = -1, -1
	for _, f := range fits {
		if f.Kind == model.AppClustering {
			cl = f.Distance
		}
		if best < 0 || f.Distance < best {
			best = f.Distance
		}
	}
	// At this deliberately tiny scale (1,200 apps, 4 crawl days) the fit
	// margins are noisy; the strong model-selection claims are asserted at
	// proper scale in internal/experiments. Here we only require that the
	// crawled data remains fittable and APP-CLUSTERING stays competitive.
	if cl < 0 || cl > 2*best {
		t.Fatalf("APP-CLUSTERING distance %v far from best %v on crawled data", cl, best)
	}

	// --- Affinity from crawled comments -----------------------------------
	crawled := c.DB().Comments()
	if len(crawled) == 0 {
		t.Fatal("no comments crawled")
	}
	sort.SliceStable(crawled, func(i, j int) bool { return crawled[i].UnixTime < crawled[j].UnixTime })
	match, total := 0, 0
	lastAppSeen := map[int32]int32{}
	lastCat := map[int32]string{}
	catByApp := map[int32]string{}
	for _, rec := range c.DB().Apps() {
		catByApp[rec.ID] = rec.Category
	}
	for _, cm := range crawled {
		if cm.Rating <= 0 {
			continue
		}
		if prev, ok := lastAppSeen[cm.User]; ok && prev == cm.App {
			continue
		}
		cat := catByApp[cm.App]
		if prevCat, ok := lastCat[cm.User]; ok {
			total++
			if prevCat == cat {
				match++
			}
		}
		lastAppSeen[cm.User] = cm.App
		lastCat[cm.User] = cat
	}
	if total == 0 {
		t.Fatal("no affinity pairs")
	}
	aff := float64(match) / float64(total)
	if aff < 0.15 {
		t.Fatalf("crawled depth-1 affinity %v too weak (planted ~0.28)", aff)
	}
}

// positiveCurve is the form measured curves take: the rank curve of the
// apps with at least one download.
func positiveCurve(downloads []int64) dist.RankCurve {
	vals := make([]float64, 0, len(downloads))
	for _, d := range downloads {
		if d > 0 {
			vals = append(vals, float64(d))
		}
	}
	return dist.NewRankCurve(vals)
}

// The tests below drive each offline stage of the pipeline the way its
// command does — across package boundaries, on data another package
// produced. The per-package tests pin the stages; these pin the joints.

func TestProfilesExposed(t *testing.T) {
	for _, name := range []string{"slideme", "1mobile", "appchina", "anzhi"} {
		if p, ok := catalog.Profiles[name]; !ok || p.Name != name {
			t.Fatalf("profile %q missing or misnamed: %+v", name, p)
		}
	}
	if got := len(catalog.ProfileNames()); got != 4 {
		t.Fatalf("%d profile names", got)
	}
}

func TestGenerateAndSimulate(t *testing.T) {
	p := catalog.Profiles["slideme"].Scale(0.1)
	c, err := catalog.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumApps() != p.Apps {
		t.Fatalf("catalog has %d apps", c.NumApps())
	}
	cfg := marketsim.DefaultConfig(p)
	cfg.Days = 10
	m, err := marketsim.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	series, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Days) != 10 {
		t.Fatalf("series has %d days", len(series.Days))
	}
	if m.Catalog().NumApps() < p.Apps {
		t.Fatal("market lost apps")
	}
}

func TestWorkloadAndFit(t *testing.T) {
	cfg := model.Config{
		Apps: 600, Users: 8000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
	w, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve := positiveCurve(w.Run(3).Downloads)
	if curve.Total() == 0 {
		t.Fatal("no downloads")
	}
	if pred := model.PredictCurve(model.AppClustering, cfg); len(pred.Downloads) != cfg.Apps {
		t.Fatal("prediction length wrong")
	}
	spec := model.DefaultFitSpec()
	spec.Users = []int{cfg.Users}
	fits, err := model.FitAllMC(curve, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("%d fits", len(fits))
	}
	if fits[0].Kind != model.AppClustering {
		t.Fatalf("best fit is %s", fits[0].Kind)
	}
}

func TestAffinityPipeline(t *testing.T) {
	c, err := catalog.Generate(catalog.Profiles["anzhi"].Scale(0.1), 7)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := comments.Generate(c, comments.DefaultGenConfig(2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	catStrings := comments.CategoryStrings(c, comments.AppStrings(comments.Filter(stream, 80)))
	an, err := affinity.Analyze(catStrings, c.CategorySizes(), []int{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if an.OverallMean[0] < 2*an.RandomWalk[0] {
		t.Fatalf("affinity %v vs baseline %v", an.OverallMean[0], an.RandomWalk[0])
	}
}

func TestCacheSweepFacade(t *testing.T) {
	cfg := model.Config{
		Apps: 1000, Users: 4000, DownloadsPerUser: 8,
		ZipfGlobal: 1.7, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
	pts, err := cache.SweepLRU(cfg, []float64{2, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].HitRatio["APP-CLUSTERING"] >= pts[0].HitRatio["ZIPF"] {
		t.Fatal("clustering should hurt the cache")
	}
}

func TestAnalyzePricingFacade(t *testing.T) {
	cfg := marketsim.DefaultConfig(catalog.Profiles["slideme"])
	cfg.Days = 20
	m, err := marketsim.New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ds := pricing.Dataset{Catalog: m.Catalog(), Downloads: m.Downloads()}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if be, err := pricing.BreakEvenAdIncome(ds); err != nil || be <= 0 {
		t.Fatalf("break-even income %v, %v", be, err)
	}
	if free, paid := ds.SplitCurves(); free.Total() <= paid.Total() {
		t.Fatal("free volume should dominate")
	}
	if incomes, err := pricing.Incomes(ds); err != nil || len(incomes) == 0 {
		t.Fatalf("%d incomes, %v", len(incomes), err)
	}
}

func TestExperimentFacade(t *testing.T) {
	if ids := experiments.IDs(); len(ids) != 24 {
		t.Fatalf("%d experiments", len(ids))
	}
	s, err := experiments.NewSuite(experiments.Config{Seed: 3, Scale: 0.15, Days: 10, CommentUsers: 800})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(s, "T1")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID() != "T1" {
		t.Fatalf("ID = %s", res.ID())
	}
	var buf bytes.Buffer
	for _, tbl := range res.Tables() {
		if _, err := tbl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "anzhi") {
		t.Fatal("render missing content")
	}
	if _, err := experiments.Run(s, "F999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
