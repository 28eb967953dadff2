package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/db"
	"planetapps/internal/marketsim"
	"planetapps/internal/proxy"
	"planetapps/internal/storeserver"
)

// testStore starts an in-process store with comments attached.
func testStore(t *testing.T, scfg storeserver.Config) (*storeserver.Server, *httptest.Server) {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.1))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := storeserver.New(m, scfg)
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetComments(cs)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestCrawlDay(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 37})
	c, err := New(DefaultConfig(ts.URL), db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps == 0 {
		t.Fatal("crawl found no apps")
	}
	if got := c.DB().Store(); got != "slideme" {
		t.Fatalf("db records store %q, want slideme", got)
	}
	if c.DB().NumApps() != stats.Apps {
		t.Fatalf("db has %d apps, stats claim %d", c.DB().NumApps(), stats.Apps)
	}
	// Every record carries a day-0 stat.
	for _, rec := range c.DB().Apps() {
		if len(rec.Daily) != 1 || rec.Daily[0].Day != stats.Day {
			t.Fatalf("record %d daily = %+v", rec.ID, rec.Daily)
		}
		if rec.Category == "" || rec.Developer == "" {
			t.Fatalf("record %d missing metadata", rec.ID)
		}
	}
}

func TestCrawlWithComments(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	cfg := DefaultConfig(ts.URL)
	cfg.FetchComments = true
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Comments == 0 {
		t.Fatal("no comments crawled")
	}
	// Re-crawling the same day adds no duplicate comments.
	stats2, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Comments != 0 {
		t.Fatalf("re-crawl added %d duplicate comments", stats2.Comments)
	}
}

// TestCrawlKeepsEveryServedComment: a user who rates an app and comments on
// it with the same stars on one day gets two identical records in the
// app's stream (both merged at the day boundary), and the crawl database
// holds both — no more after a same-day re-crawl or the next day's crawl.
func TestCrawlKeepsEveryServedComment(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	const app, user = 3, 50_000
	for _, kind := range []string{"rate", "comments"} {
		resp, err := http.Post(fmt.Sprintf("%s/api/v1/apps/%d/%s", ts.URL, app, kind), "application/json",
			strings.NewReader(fmt.Sprintf(`{"user":%d,"rating":4}`, user)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", kind, resp.Status)
		}
	}
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ts.URL)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	posted := func() (n int) {
		for _, cm := range c.DB().Comments() {
			if cm.App == app && cm.User == user {
				n++
			}
		}
		return n
	}
	for day := 0; day < 2; day++ {
		for crawl := 0; crawl < 2; crawl++ {
			if _, err := c.CrawlDay(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := posted(); n != 2 {
				t.Fatalf("day %d crawl %d: the database holds %d of the user's 2 identical records", day, crawl, n)
			}
		}
		if err := srv.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConditionalRecrawl verifies the crawler's ETag revalidation: a
// same-day re-crawl answers almost entirely from 304s (no payloads
// transferred) yet yields identical data, and a day advance invalidates
// the day-scoped documents so fresh statistics still flow.
func TestConditionalRecrawl(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 25})
	cfg := DefaultConfig(ts.URL)
	cfg.FetchComments = true
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s1, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NotModified != 0 {
		t.Fatalf("first crawl revalidated %d documents with an empty cache", s1.NotModified)
	}
	s2, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Same day, nothing changed: stats, every listing page, and every
	// comment stream should all have come back 304.
	pages := (s1.Apps + 24) / 25
	if wantMin := int64(1 + pages); s2.NotModified < wantMin {
		t.Fatalf("same-day re-crawl got %d 304s, want >= %d", s2.NotModified, wantMin)
	}
	if s2.Apps != s1.Apps {
		t.Fatalf("re-crawl from cached bodies saw %d apps, first crawl %d", s2.Apps, s1.Apps)
	}
	// A new day invalidates day-scoped ETags: the crawl still succeeds and
	// records the new day's growing download counts.
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CrawlDay(ctx); err != nil {
		t.Fatal(err)
	}
	grew := 0
	for _, rec := range c.DB().Apps() {
		if len(rec.Daily) == 2 && rec.Daily[1].Day == 1 && rec.Daily[1].Downloads >= rec.Daily[0].Downloads {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no app recorded fresh day-1 statistics after AdvanceDay")
	}
}

func TestMultiDayCrawl(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	c, err := New(DefaultConfig(ts.URL), db.New())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if day > 0 {
			if err := srv.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CrawlDay(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Apps present from day 0 should have 3 daily stats with
	// non-decreasing downloads.
	multi := 0
	for _, rec := range c.DB().Apps() {
		if len(rec.Daily) == 3 {
			multi++
			if rec.Daily[2].Downloads < rec.Daily[0].Downloads {
				t.Fatalf("downloads regressed for app %d: %+v", rec.ID, rec.Daily)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no app observed on all three days")
	}
}

func TestCrawlSurvivesRateLimiting(t *testing.T) {
	// A tightly limited store forces 429s; the crawler must retry through
	// them and still complete.
	_, ts := testStore(t, storeserver.Config{PageSize: 20, RatePerSec: 400, Burst: 5})
	cfg := DefaultConfig(ts.URL)
	cfg.RatePerSec = 0 // crawl as fast as possible to trigger 429s
	cfg.Workers = 8
	cfg.MaxRetries = 10
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Log("warning: no retries triggered; limiter may be too lax for this test")
	}
	if stats.Apps == 0 {
		t.Fatal("crawl failed under rate limiting")
	}
}

func TestCrawlThroughProxyPool(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 25})
	// Three in-process proxy nodes.
	var proxies []*proxy.Proxy
	var urls []string
	for i := 0; i < 3; i++ {
		p := proxy.New("node")
		psrv := httptest.NewServer(p.Handler())
		t.Cleanup(psrv.Close)
		proxies = append(proxies, p)
		urls = append(urls, psrv.URL)
	}
	cfg := DefaultConfig(ts.URL)
	cfg.Proxies = urls
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps == 0 {
		t.Fatal("proxied crawl found no apps")
	}
	var relayed int64
	for _, p := range proxies {
		if p.Requests() == 0 {
			t.Fatal("a proxy node relayed nothing; rotation broken")
		}
		relayed += p.Requests()
	}
	if relayed < stats.Requests {
		t.Fatalf("proxies relayed %d of %d requests", relayed, stats.Requests)
	}
}

func TestCrawlPermanentErrorFailsFast(t *testing.T) {
	// An endpoint returning 404 for stats must fail without retries.
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c, err := New(DefaultConfig(srv.URL), db.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CrawlDay(context.Background()); err == nil {
		t.Fatal("404 store crawled successfully")
	}
	if hits.Load() != 1 {
		t.Fatalf("permanent error retried: %d hits", hits.Load())
	}
}

func TestCrawlRetriesServerErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/api/stats" || r.URL.Path == "/api/v1/stats" {
			w.Write([]byte(`{"store":"x","day":0,"apps":0,"total_downloads":0}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"apps":[],"total":0}`)) //nolint:errcheck
	}))
	defer srv.Close()
	cfg := DefaultConfig(srv.URL)
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", stats.Retries)
	}
}

// TestMaxRetriesIsTheBudget holds the crawl to its retry budget against a
// store that only fails: MaxRetries n is n+1 requests, and 0 is one attempt,
// not a default.
func TestMaxRetriesIsTheBudget(t *testing.T) {
	for _, tc := range []struct{ retries, requests int }{{0, 1}, {1, 2}, {3, 4}} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		cfg := DefaultConfig(srv.URL)
		cfg.MaxRetries = tc.retries
		c, err := New(cfg, db.New())
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.CrawlDay(context.Background())
		srv.Close()
		if err == nil {
			t.Fatalf("MaxRetries %d: an all-500 store crawled successfully", tc.retries)
		}
		if got := hits.Load(); got != int64(tc.requests) {
			t.Errorf("MaxRetries %d: %d requests, want %d", tc.retries, got, tc.requests)
		}
	}
}

func TestCancellation(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 5})
	cfg := DefaultConfig(ts.URL)
	cfg.RatePerSec = 10 // slow crawl so cancellation lands mid-flight
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CrawlDay(ctx); err == nil {
		t.Fatal("cancelled crawl succeeded")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, db.New()); err == nil {
		t.Fatal("empty base URL accepted")
	}
	cfg := DefaultConfig("http://127.0.0.1:1")
	cfg.MaxRetries = -1
	if _, err := New(cfg, db.New()); err == nil {
		t.Fatal("negative retry budget accepted")
	}
}

func TestCrawlFetchesAPKsOncePerVersion(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	cfg := DefaultConfig(ts.URL)
	cfg.FetchAPKs = true
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.APKs != stats.Apps {
		t.Fatalf("first crawl fetched %d APKs for %d apps", stats.APKs, stats.Apps)
	}
	if stats.APKBytes == 0 {
		t.Fatal("no APK bytes transferred")
	}
	// Re-crawl without version changes: nothing new fetched.
	stats2, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.APKs != 0 {
		t.Fatalf("re-crawl fetched %d APKs", stats2.APKs)
	}
	// Advance days so some apps ship updates, then re-crawl: only the
	// updated apps' new versions are fetched.
	for i := 0; i < 5; i++ {
		if err := srv.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
	stats3, err := c.CrawlDay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats3.APKs >= stats.Apps/2 {
		t.Fatalf("after updates, %d of %d apps re-fetched; expected few", stats3.APKs, stats.Apps)
	}
	pkgs := 0
	for _, rec := range c.DB().Apps() {
		pkgs += len(rec.APKVersions)
	}
	if pkgs != stats.APKs+stats3.APKs {
		t.Fatalf("db holds %d packages, want %d", pkgs, stats.APKs+stats3.APKs)
	}
}
