package crawler

import (
	"context"
	"testing"

	"planetapps/internal/cache"
	"planetapps/internal/db"
	"planetapps/internal/storeserver"
)

// TestCondCacheEviction bounds the conditional-request cache: with a
// capacity far below the catalog size, the crawl still succeeds, the map
// never exceeds the cap, and evictions are counted.
func TestCondCacheEviction(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 25})
	c, err := New(DefaultConfig(ts.URL), db.New())
	if err != nil {
		t.Fatal(err)
	}
	// Swap in an 8-entry cache before the first request.
	c.condLRU = cache.NewLRU[string](8)
	c.condLRU.OnEvict(c.condEvicted)
	ctx := context.Background()
	s1, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Apps == 0 {
		t.Fatal("crawl found no apps")
	}
	if s1.CondEvictions == 0 {
		t.Fatalf("crawled %d apps through an 8-entry cache with no evictions", s1.Apps)
	}
	c.condMu.Lock()
	size, lsize := len(c.cond), c.condLRU.Len()
	c.condMu.Unlock()
	if size > 8 || lsize != size {
		t.Fatalf("cache exceeded cap: map %d, list %d, cap 8", size, lsize)
	}
	// The crawl still works end to end on a second pass (whatever survived
	// in cache may revalidate; everything else refetches).
	s2, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Apps != s1.Apps {
		t.Fatalf("second crawl saw %d apps, first %d", s2.Apps, s1.Apps)
	}
}

// TestCrossDayNotModifiedRate is the end-to-end payoff of content-version
// ETags: crawling the NEXT day (not a same-day re-crawl) still earns real
// 304s for the unchanged majority of the catalog.
func TestCrossDayNotModifiedRate(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 25})
	cfg := DefaultConfig(ts.URL)
	cfg.FetchComments = true
	c, err := New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CrawlDay(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	s2, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Comment streams never change day to day and at least some apps see
	// no downloads/updates, so the cross-day crawl must revalidate
	// something — impossible under day-scoped ETags.
	if s2.NotModified == 0 {
		t.Fatal("day-2 crawl earned no 304s: ETags are not content-versioned")
	}
	if s2.NotModifiedRate <= 0 || s2.NotModifiedRate > 1 {
		t.Fatalf("bad NotModifiedRate %v", s2.NotModifiedRate)
	}
}
