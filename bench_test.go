// Package planetapps_test hosts the benchmark harness that regenerates
// every table and figure of the paper (go test -bench=.). Each benchmark
// runs one experiment end-to-end against a shared reduced-scale suite and
// reports a headline domain metric alongside ns/op, so a bench run doubles
// as a smoke reproduction of the paper's results. EXPERIMENTS.md records
// the full-scale numbers.
package planetapps_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/experiments"
	"planetapps/internal/marketsim"
	"planetapps/internal/metrics"
	"planetapps/internal/model"
	"planetapps/internal/pricing"
	"planetapps/internal/storeserver"
)

// benchSuite is shared across benchmarks; markets simulate once and cache.
var (
	benchOnce sync.Once
	benchS    *experiments.Suite
	benchErr  error
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchS, benchErr = experiments.NewSuite(experiments.Config{
			Seed: 1, Scale: 0.25, Days: 20, CommentUsers: 4000,
		})
		if benchErr != nil {
			return
		}
		// Pre-simulate every store so per-benchmark timings measure the
		// analysis, not the shared market construction.
		for _, store := range benchS.StoreNames() {
			if _, benchErr = benchS.Store(store); benchErr != nil {
				return
			}
		}
		_, _, benchErr = benchS.CommentData()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

// runExperiment is the common benchmark body.
func runExperiment(b *testing.B, id string) experiments.Result {
	s := suite(b)
	var res experiments.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(s, id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	b.StopTimer()
	return res
}

func BenchmarkTable1(b *testing.B) {
	res := runExperiment(b, "T1").(*experiments.Table1Result)
	b.ReportMetric(res.Rows[0].DailyDownloads, "daily-downloads")
}

func BenchmarkFigure2(b *testing.B) {
	res := runExperiment(b, "F2").(*experiments.Figure2Result)
	// Top-10% share for the anzhi profile (paper: ~90%).
	for i, p := range res.RankPcts {
		if p == 10 {
			b.ReportMetric(res.Share["anzhi"][i], "top10%-share-pct")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	res := runExperiment(b, "F3").(*experiments.Figure3Result)
	b.ReportMetric(res.Stores[0].TrunkExponent, "anzhi-trunk-exp")
	b.ReportMetric(res.Stores[0].TailDrop, "anzhi-tail-drop")
}

func BenchmarkFigure4(b *testing.B) {
	res := runExperiment(b, "F4").(*experiments.Figure4Result)
	b.ReportMetric(res.Stores[0].NoUpdatePct, "never-updated-pct")
}

func BenchmarkFigure5(b *testing.B) {
	res := runExperiment(b, "F5").(*experiments.Figure5Result)
	b.ReportMetric(res.SingleCategoryPct, "single-category-pct")
	b.ReportMetric(res.CategoryDownloadPct[0], "top-category-pct")
}

func BenchmarkFigure6(b *testing.B) {
	res := runExperiment(b, "F6").(*experiments.Figure6Result)
	b.ReportMetric(res.Analysis.OverallMean[0], "affinity-d1")
	b.ReportMetric(res.Analysis.RandomWalk[0], "random-walk-d1")
}

func BenchmarkFigure7(b *testing.B) {
	res := runExperiment(b, "F7").(*experiments.Figure7Result)
	b.ReportMetric(res.Medians[0], "median-affinity-d1")
}

func BenchmarkFigure8(b *testing.B) {
	res := runExperiment(b, "F8").(*experiments.Figure8Result)
	// Best-fit distance of APP-CLUSTERING on the anzhi profile.
	for _, st := range res.Stores {
		if st.Store == "anzhi" {
			for _, f := range st.Fits {
				if f.Kind == model.AppClustering {
					b.ReportMetric(f.Distance, "clustering-distance")
				}
			}
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	res := runExperiment(b, "F9").(*experiments.Figure9Result)
	wins := 0
	for _, row := range res.Rows {
		c := row.Distances[model.AppClustering.String()]
		if c <= row.Distances[model.Zipf.String()] && c <= row.Distances[model.ZipfAtMostOnce.String()] {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "clustering-wins-of-6")
}

func BenchmarkFigure10(b *testing.B) {
	res := runExperiment(b, "F10").(*experiments.Figure10Result)
	ds, best := res.Distance["anzhi"], 0
	for i := range ds {
		if ds[i] < ds[best] {
			best = i
		}
	}
	b.ReportMetric(res.Fractions[best], "argmin-users-fraction")
}

func BenchmarkFigure11(b *testing.B) {
	res := runExperiment(b, "F11").(*experiments.Figure11Result)
	b.ReportMetric(res.PaidTrunk, "paid-trunk-exp")
	b.ReportMetric(res.FreeTrunk, "free-trunk-exp")
}

func BenchmarkFigure12(b *testing.B) {
	res := runExperiment(b, "F12").(*experiments.Figure12Result)
	b.ReportMetric(res.Bins.PriceDownloadsR, "price-downloads-r")
}

func BenchmarkFigure13(b *testing.B) {
	res := runExperiment(b, "F13").(*experiments.Figure13Result)
	b.ReportMetric(res.Percentiles[50], "median-income-usd")
}

func BenchmarkFigure14(b *testing.B) {
	res := runExperiment(b, "F14").(*experiments.Figure14Result)
	b.ReportMetric(res.Correlation, "income-apps-r")
}

func BenchmarkFigure15(b *testing.B) {
	res := runExperiment(b, "F15").(*experiments.Figure15Result)
	b.ReportMetric(res.Top4RevenuePct, "top4-revenue-pct")
}

func BenchmarkFigure16(b *testing.B) {
	res := runExperiment(b, "F16").(*experiments.Figure16Result)
	b.ReportMetric(res.PaidSingleAppPct, "paid-single-app-pct")
}

func BenchmarkFigure17(b *testing.B) {
	res := runExperiment(b, "F17").(*experiments.Figure17Result)
	last := res.ByTier[len(res.ByTier)-1]
	b.ReportMetric(res.Overall[len(res.Overall)-1], "break-even-usd")
	b.ReportMetric(last[pricing.TierPopular], "break-even-popular-usd")
}

func BenchmarkFigure18(b *testing.B) {
	res := runExperiment(b, "F18").(*experiments.Figure18Result)
	b.ReportMetric(res.Values[0]/res.Values[len(res.Values)-1], "category-spread-x")
}

func BenchmarkFigure19(b *testing.B) {
	res := runExperiment(b, "F19").(*experiments.Figure19Result)
	first := res.Points[0]
	b.ReportMetric(first.HitRatio[model.AppClustering.String()], "clustering-hit-pct-smallest")
	b.ReportMetric(first.HitRatio[model.Zipf.String()], "zipf-hit-pct-smallest")
}

func BenchmarkAblationX1(b *testing.B) {
	res := runExperiment(b, "X1").(*experiments.AblationX1Result)
	b.ReportMetric(res.Rows[0].DistanceToAMO, "p0-distance-to-amo")
}

func BenchmarkCachePolicies(b *testing.B) {
	res := runExperiment(b, "X2").(*experiments.CachePoliciesX2Result)
	b.ReportMetric(res.HitRatio("CategoryAware")-res.HitRatio("LRU"), "categoryaware-vs-lru-pct")
}

func BenchmarkPrefetchX3(b *testing.B) {
	res := runExperiment(b, "X3").(*experiments.PrefetchX3Result)
	b.ReportMetric(res.HitRate("category-top"), "categorytop-hit-pct")
	b.ReportMetric(res.HitRate("popularity"), "globaltop-hit-pct")
}

func BenchmarkRecommendX4(b *testing.B) {
	res := runExperiment(b, "X4").(*experiments.RecommendX4Result)
	b.ReportMetric(res.HitRate("cluster-aware"), "clusteraware-hit-pct")
	b.ReportMetric(res.HitRate("popularity"), "popularity-hit-pct")
}

func BenchmarkSensitivityX5(b *testing.B) {
	res := runExperiment(b, "X5").(*experiments.SensitivityX5Result)
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.FittedP, "fitted-p-at-planted-0.9")
	b.ReportMetric(last.Advantage, "amo-over-cl-distance")
}

// BenchmarkFitMCParallel records the worker-scaling curve of the Monte
// Carlo fit pipeline (candidate shortlist evaluated on FitSpec.Workers
// goroutines, each candidate's runs concurrent). The observed curve is
// deliberately small so CI's fixed-iteration bench smoke stays fast.
func BenchmarkFitMCParallel(b *testing.B) {
	cfg := model.Config{
		Apps: 300, Users: 3000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 15,
	}
	w, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		b.Fatal(err)
	}
	observed := w.Run(17).Curve()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := model.DefaultFitSpec()
			spec.Workers = workers
			for i := 0; i < b.N; i++ {
				fit, err := model.FitMC(model.AppClustering, observed, spec, 3)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(fit.Distance, "distance")
				}
			}
		})
	}
}

// storeBenchHandler builds one instrumented storeserver handler (rate
// limiter enabled but effectively unlimited, so its cost is measured
// without 429s) shared across the serving-path benchmarks.
var (
	storeBenchOnce sync.Once
	storeBenchH    http.Handler
	storeBenchErr  error
)

func storeHandler(b *testing.B) http.Handler {
	b.Helper()
	storeBenchOnce.Do(func() {
		mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
		m, err := marketsim.New(mcfg, 1)
		if err != nil {
			storeBenchErr = err
			return
		}
		storeBenchH = storeserver.New(m, storeserver.Config{
			PageSize: 100, RatePerSec: 1e12, Burst: 1 << 30,
		}).Handler()
	})
	if storeBenchErr != nil {
		b.Fatal(storeBenchErr)
	}
	return storeBenchH
}

// BenchmarkStoreCursorPage measures the listing handler (a 100-app slice,
// rendered per request) through the limiter and instrumentation middleware.
func BenchmarkStoreCursorPage(b *testing.B) {
	h := storeHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/apps?cursor=", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkStoreAppDetail measures the single-app detail hot path.
func BenchmarkStoreAppDetail(b *testing.B) {
	h := storeHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/apps/7", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkStoreStats guards the pre-summed statistics document: the old
// handler summed every per-app download count under the read lock on each
// request (O(apps)); the snapshot sums once per day, so this path must
// stay O(1) regardless of catalog size.
func BenchmarkStoreStats(b *testing.B) {
	h := storeHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// discardWriter mirrors what a recycled keep-alive connection gives the
// server: a persistent header map and a body sink. The recorder-based
// benchmarks above measure the harness as much as the handler; these
// writers isolate the serving path itself, which is the zero-allocation
// claim under test.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// benchHotPath drives one warm cache-hit route with per-goroutine
// writers and requests, the way concurrent keep-alive connections do.
func benchHotPath(b *testing.B, path, acceptEncoding string) {
	h := storeHandler(b)
	proto := httptest.NewRequest(http.MethodGet, path, nil)
	if acceptEncoding != "" {
		proto.Header.Set("Accept-Encoding", acceptEncoding)
	}
	// Warm: document fill, limiter bucket, header-slot creation.
	h.ServeHTTP(&discardWriter{h: http.Header{}}, proto)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := proto.Clone(proto.Context())
		w := &discardWriter{h: http.Header{}}
		for pb.Next() {
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkStoreAppDetailHot measures the warm v1 detail hit.
func BenchmarkStoreAppDetailHot(b *testing.B) {
	benchHotPath(b, "/api/v1/apps/7", "identity")
}

// BenchmarkColdFill measures a document's first touch — what a crawl pays
// once per content version and therefore on most of its requests: each
// iteration asks a store for one app's detail document and comment stream
// for the first time (row encode, gzipx's pay rule, the arena copy), with
// comments attached so some streams clear the size floor and are
// compressed. A fresh store is built, off the clock, whenever the catalog
// has been touched once through.
func BenchmarkColdFill(b *testing.B) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(400), 2)
	if err != nil {
		b.Fatal(err)
	}
	var h http.Handler
	apps := 0
	w := &discardWriter{h: http.Header{}}
	detail := httptest.NewRequest(http.MethodGet, "/api/v1/apps/0", nil)
	detail.Header.Set("Accept-Encoding", "gzip")
	stream := detail.Clone(detail.Context())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % max(apps, 1)
		if id == 0 {
			b.StopTimer()
			srv := storeserver.New(m, storeserver.Config{PageSize: 100})
			srv.SetComments(cs)
			h, apps = srv.Handler(), srv.NumApps()
			b.StartTimer()
		}
		detail.URL.Path = "/api/v1/apps/" + strconv.Itoa(id)
		stream.URL.Path = detail.URL.Path + "/comments"
		for _, req := range []*http.Request{detail, stream} {
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				b.Fatalf("GET %s: status %d", req.URL.Path, w.status)
			}
		}
	}
}

// BenchmarkHistogramObserve measures the telemetry histogram's record path
// under parallel writers — the per-request overhead the instrumented
// server pays.
func BenchmarkHistogramObserve(b *testing.B) {
	h := metrics.NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(17)
		for pb.Next() {
			h.Observe(v)
			v = (v*2862933555777941757 + 3037000493) % (1 << 30)
			if v < 0 {
				v = -v
			}
		}
	})
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// dayRollProfile builds a free+paid catalog profile of n apps with
// crawl-realistic churn: day-over-day deltas (downloads, updates, price
// changes, arrivals) are a small fraction of catalog size, the regime the
// paper's daily crawls observe and the day-roll path must exploit.
func dayRollProfile(n int) catalog.Profile {
	return catalog.Profile{
		Name: "dayroll", Apps: n, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: float64(n) / 2000,
		Users: n, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	}
}

// dayRollMarket builds the market driven by BenchmarkAdvanceDayExport: a
// long period (so the bench never exhausts it) whose daily download volume
// is ~2% of the catalog (Users * DownloadsPerUser / Days), alongside
// ~0.3% updated and ~0.05% newly arrived apps per day — the small
// day-over-day deltas the paper's daily crawls observe.
func dayRollMarket(b *testing.B, n int) *marketsim.Market {
	b.Helper()
	cfg := marketsim.DefaultConfig(dayRollProfile(n))
	cfg.Days = 4096
	cfg.WarmupDays = 0
	// The serving path never reads the per-app daily series, so every
	// serving store runs with recording off (fleet.NewShard sets it). The
	// knob is observation-only: TestSeedDeterminismAcrossModes proves the
	// simulated market is identical either way.
	cfg.DisableSeries = true
	m, err := marketsim.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAdvanceDayExport measures the full day-roll cost on the serving
// path — market Step (simulation) + Export (catalog/download freeze) +
// snapshot rebuild (response-cache construction) — at catalog sizes where
// O(catalog) work per day dominates. This is the write-path counterpart of
// the read-path serving benchmarks above.
func BenchmarkAdvanceDayExport(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("1M-app market build is slow; run without -short")
			}
			m := dayRollMarket(b, n)
			s := storeserver.New(m, storeserver.Config{PageSize: 100})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.AdvanceDay(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDayRollWarmArena measures the arena-backed snapshot lifecycle
// under its production rhythm: fully warmed document caches, a day-roll,
// then a re-warm that refills only the churned documents. Each iteration
// exercises the carry path (handle blocks shared wholesale, changed docs
// re-encoded into the fresh arena), arena retention across generations,
// and — as dead bytes accumulate — compaction. The slabs_live metric (the
// serving table's slabs) makes an arena leak visible in the CI log: it
// must plateau, not grow with b.N.
func BenchmarkDayRollWarmArena(b *testing.B) {
	const n = 10_000
	m := dayRollMarket(b, n)
	s := storeserver.New(m, storeserver.Config{PageSize: 100})
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	warm := func() {
		for i := 0; i < n; i += 7 {
			req := httptest.NewRequest(http.MethodGet, "/api/v1/apps/"+strconv.Itoa(i), nil)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
	}
	warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AdvanceDay(); err != nil {
			b.Fatal(err)
		}
		warm()
	}
	b.StopTimer()
	ar := s.Arena()
	b.ReportMetric(float64(ar.SlabsLive), "slabs_live")
}
