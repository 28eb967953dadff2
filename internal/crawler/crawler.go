// Package crawler implements the paper's data-collection pipeline
// (Figure 1): concurrent HTTP crawlers that walk a store's app listing,
// fetch per-app detail and comment pages, rotate requests across a proxy
// pool, respect per-store politeness limits with retry/backoff, and
// persist daily statistics into the local crawl database.
//
// The crawl speaks the store's /api/v1 surface: the listing is walked by
// opaque cursor (stable across day-rolls, unlike page numbers) by one
// sequential feeder, while per-app work — comments, APKs — fans out to
// parallel workers. All HTTP goes through an internal/resilient client,
// which supplies full-jitter backoff with Retry-After honoring, hedged
// requests (Config.HedgeAfter; 0 switches them off), response-body decode
// validation with re-fetch, gzip transfer (always asked for; inflated and
// CRC-checked inside the retry loop, so the ingested documents are the
// identity ones) and health-scored rotation over the proxy pool.
package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/cache"
	"planetapps/internal/db"
	"planetapps/internal/proxy"
	"planetapps/internal/resilient"
	"planetapps/internal/storeserver"
)

// Config controls a crawl session.
type Config struct {
	// BaseURL is the store's root URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the number of concurrent per-app fetchers.
	Workers int
	// RatePerSec bounds the crawler's aggregate request rate ("we designed
	// our crawlers to comply with the thresholds set by each appstore");
	// <= 0 disables the limiter. Retries and hedges spend the same budget.
	RatePerSec float64
	// MaxRetries is the per-request retry budget for 429/5xx/transport
	// errors and damaged payloads: 0 is one attempt; negative is refused.
	MaxRetries int
	// Backoff is the base of the full-jitter retry schedule (0 = the
	// resilient client's default).
	Backoff time.Duration
	// Proxies optionally routes requests through forward proxies at these
	// base URLs. Selection is health-scored (resilient.ProxyHealth): nodes
	// are demoted after repeated transport failures and probed back in
	// after a cooldown.
	Proxies []string
	// FetchComments enables per-app comment crawling.
	FetchComments bool
	// FetchAPKs enables package downloads. Each (app, version) pair is
	// fetched exactly once across the crawler's lifetime ("we download
	// each app version only once, so we do not affect the actual number
	// of downloads" — and the simulated store indeed does not count them).
	FetchAPKs bool
	// HedgeAfter launches a duplicate of an attempt still in flight after
	// this long, first completion winning (0 disables). Hedging converts
	// injected tail-latency spikes into near-median fetches: a two-day
	// crawl's p99 is 191 ms against 258 ms without it under corruption, and
	// 166 against 229 ms under slow-loris (EXPERIMENTS.md, "RES").
	HedgeAfter time.Duration
}

// condCacheSize bounds the per-URL conditional-GET cache (entries);
// least-recently-used entries are evicted past the cap. It is comfortably
// above one crawl pass of the test stores, so eviction only kicks in on
// long multi-store sessions.
const condCacheSize = 65536

// DefaultConfig returns a configuration suited to the in-process store,
// hedging on. Backoff and the attempt timeout are the resilient client's
// defaults.
func DefaultConfig(baseURL string) Config {
	return Config{
		BaseURL:    baseURL,
		Workers:    8,
		RatePerSec: 150,
		MaxRetries: 5,
		HedgeAfter: 150 * time.Millisecond,
	}
}

// Stats summarizes one crawl session.
type Stats struct {
	// Day is the store day the crawl observed.
	Day int
	// Apps is the number of app records upserted.
	Apps int
	// Comments is the number of new comments stored.
	Comments int
	// APKs is the number of new app packages fetched.
	APKs int
	// APKBytes is the number of package bytes transferred.
	APKBytes int64
	// Requests counts HTTP attempts issued (retries and hedges included).
	Requests int64
	// Retries counts retried requests.
	Retries int64
	// NotModified counts JSON requests the store answered with 304 from a
	// revalidated ETag — payloads the crawler skipped, the metadata
	// counterpart of the version-aware APK dedup.
	NotModified int64
	// NotModifiedRate is NotModified/Requests — the conditional-GET hit
	// rate. With content-version ETags it approximates the store's
	// unchanged fraction; near zero it means the crawler is paying full
	// transfer for a mostly static catalog.
	NotModifiedRate float64
	// CondEvictions counts conditional-cache entries dropped by the LRU
	// cap; each eviction turns a would-be 304 back into a full transfer.
	CondEvictions int64
	// Client snapshots the resilient client's recovery activity: hedges
	// and hedge wins, Retry-After waits, invalid bodies re-fetched, proxy
	// demotions, latency quantiles.
	Client resilient.Stats
}

// Crawler crawls one store into a database.
type Crawler struct {
	cfg    Config
	client *resilient.Client
	db     *db.DB

	mu          sync.Mutex
	notModified int64

	// cond caches the last validated (ETag, body) per JSON URL so repeat
	// crawls can revalidate with If-None-Match and decode the cached bytes
	// on 304 — the same skip-unchanged-payloads discipline the APK path
	// gets from HasAPK. The cache is LRU-bounded at condCacheSize
	// entries (a long-lived crawler visiting many stores would otherwise
	// grow it without bound): condLRU decides which URLs stay and its
	// eviction hook drops the rest from cond.
	condMu        sync.Mutex
	cond          map[string]condEntry
	condLRU       *cache.LRU[string]
	condEvictions int64

	rateMu sync.Mutex
	tokens float64
	last   time.Time
}

type condEntry struct {
	etag string
	body []byte
}

// condGet returns the cached validator for url, marking it most recently
// used.
func (c *Crawler) condGet(url string) (condEntry, bool) {
	c.condMu.Lock()
	defer c.condMu.Unlock()
	ce, ok := c.cond[url]
	if ok {
		c.condLRU.Access(url)
	}
	return ce, ok
}

// condPut stores a validated (etag, body) for url, evicting the least
// recently used entry when the cache is full.
func (c *Crawler) condPut(url, etag string, body []byte) {
	c.condMu.Lock()
	defer c.condMu.Unlock()
	c.condLRU.Access(url)
	c.cond[url] = condEntry{etag: etag, body: body}
}

// condEvicted is condLRU's eviction hook; it runs under condMu.
func (c *Crawler) condEvicted(url string) {
	delete(c.cond, url)
	c.condEvictions++
}

// New creates a crawler writing into the given database.
func New(cfg Config, database *db.DB) (*Crawler, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("crawler: empty base URL")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("crawler: MaxRetries = %d, need >= 0", cfg.MaxRetries)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	c := &Crawler{
		cfg:     cfg,
		db:      database,
		cond:    map[string]condEntry{},
		condLRU: cache.NewLRU[string](condCacheSize),
		tokens:  cfg.RatePerSec,
		last:    time.Now(),
	}
	c.condLRU.OnEvict(c.condEvicted)
	transport := &http.Transport{
		MaxIdleConnsPerHost: cfg.Workers,
	}
	rcfg := resilient.Config{
		Transport:   transport,
		MaxRetries:  cfg.MaxRetries,
		BaseBackoff: cfg.Backoff,
		HedgeAfter:  cfg.HedgeAfter,
		AcceptGzip:  true,
		PreAttempt:  c.waitRate,
		UserAgent:   "planetapps-crawler/1.0",
	}
	if len(cfg.Proxies) > 0 {
		urls, err := proxy.ParseURLs(cfg.Proxies)
		if err != nil {
			return nil, err
		}
		rcfg.ProxyHealth = resilient.NewProxyHealth(urls, nil)
		transport.Proxy = rcfg.ProxyHealth.ProxyFunc()
	}
	c.client = resilient.New(rcfg)
	return c, nil
}

// DB returns the crawler's database.
func (c *Crawler) DB() *db.DB { return c.db }

// waitRate blocks until the aggregate token bucket grants a request. It is
// the resilient client's PreAttempt hook, so retries and hedges pay the
// same politeness cost as first attempts.
func (c *Crawler) waitRate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.cfg.RatePerSec <= 0 {
		return nil
	}
	for {
		c.rateMu.Lock()
		now := time.Now()
		c.tokens += now.Sub(c.last).Seconds() * c.cfg.RatePerSec
		if c.tokens > c.cfg.RatePerSec {
			c.tokens = c.cfg.RatePerSec
		}
		c.last = now
		if c.tokens >= 1 {
			c.tokens--
			c.rateMu.Unlock()
			return nil
		}
		need := (1 - c.tokens) / c.cfg.RatePerSec
		c.rateMu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(need * float64(time.Second))):
		}
	}
}

// getJSON fetches a URL through the resilient client, decoding the JSON
// response into out. Decoding runs as the client's body validator, so a
// truncated or corrupted payload — injected chaos or a real flaky proxy —
// is counted, discarded, and re-fetched instead of ingested. When a
// previous fetch of the same URL carried an ETag the request revalidates
// with If-None-Match, and a 304 answer decodes the cached body instead of
// transferring a fresh payload.
func (c *Crawler) getJSON(ctx context.Context, url string, out any) error {
	cached, haveCached := c.condGet(url)
	var hdr http.Header
	if haveCached {
		hdr = http.Header{"If-None-Match": []string{cached.etag}}
	}
	res, err := c.client.Get(ctx, url, hdr, func(r *resilient.Result) error {
		if r.Status == http.StatusNotModified {
			if !haveCached {
				return fmt.Errorf("crawler: 304 for %s with no cached body", url)
			}
			return json.Unmarshal(cached.body, out)
		}
		return json.Unmarshal(r.Body, out)
	})
	if err != nil {
		return err
	}
	if res.Status == http.StatusNotModified {
		c.mu.Lock()
		c.notModified++
		c.mu.Unlock()
		return nil
	}
	if etag := res.Header.Get("ETag"); etag != "" {
		c.condPut(url, etag, res.Body)
	}
	return nil
}

// getBytes fetches a URL with the same resilience discipline as getJSON,
// discarding the body but returning its length — used for APK downloads,
// where only transfer accounting matters to the analyses.
func (c *Crawler) getBytes(ctx context.Context, url string) (int64, error) {
	res, err := c.client.Get(ctx, url, nil, nil)
	if err != nil {
		return 0, err
	}
	return int64(len(res.Body)), nil
}

// CrawlDay performs one full crawl pass: store stats, the cursor-walked
// app listing, and (optionally) per-app comments and packages, recording a
// DailyStat per app under the store's current day.
//
// The listing walk is sequential — each slice's next_cursor feeds the next
// request — while per-app work fans out to cfg.Workers parallel fetchers.
// Cursor anchors are app IDs, so a day-roll mid-crawl cannot skip or
// duplicate an app (the storeserver test suite pins this property); the
// convergence guarantee under chaos is that the database after a crawl is
// byte-identical to one crawled without faults.
func (c *Crawler) CrawlDay(ctx context.Context) (Stats, error) {
	var stats storeserver.StatsJSON
	if err := c.getJSON(ctx, c.cfg.BaseURL+apiwire.StatsPath, &stats); err != nil {
		return Stats{}, err
	}
	day := stats.Day
	c.db.SetStore(stats.Store)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var crawlErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { crawlErr = err; cancel() }) }

	var appCount, commentCount, apkCount, apkBytes int64
	var countMu sync.Mutex

	// Per-app side work (comments, APKs), fanned out to workers.
	apps := make(chan storeserver.AppJSON, c.cfg.Workers*2)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range apps {
				if err := c.crawlApp(ctx, day, a, &commentCount, &apkCount, &apkBytes, &countMu); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	// Sequential cursor walk over the listing. Each slice is ingested
	// inline (the upsert is cheap); per-app fetches go to the workers.
	cursor := ""
walk:
	for {
		var page storeserver.CursorPageJSON
		url := c.cfg.BaseURL + apiwire.CursorPath(cursor, 0)
		if err := c.getJSON(ctx, url, &page); err != nil {
			fail(err)
			break
		}
		for _, a := range page.Apps {
			c.db.UpsertApp(db.AppRecord{
				ID: a.ID, Name: a.Name, Category: a.Category,
				Developer: a.Developer, Paid: a.Paid, Price: a.Price,
				HasAds: a.HasAds,
			}, db.DailyStat{
				Day: day, Downloads: a.Downloads, Version: a.Version, Price: a.Price,
			})
			countMu.Lock()
			appCount++
			countMu.Unlock()
			if c.cfg.FetchComments || c.cfg.FetchAPKs {
				select {
				case apps <- a:
				case <-ctx.Done():
					break walk
				}
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	close(apps)
	wg.Wait()
	if crawlErr != nil {
		return Stats{}, crawlErr
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}

	cs := c.client.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Day:         day,
		Apps:        int(appCount),
		Comments:    int(commentCount),
		APKs:        int(apkCount),
		APKBytes:    apkBytes,
		Requests:    cs.Attempts,
		Retries:     cs.Retries,
		NotModified: c.notModified,
		Client:      cs,
	}
	if st.Requests > 0 {
		st.NotModifiedRate = float64(st.NotModified) / float64(st.Requests)
	}
	c.condMu.Lock()
	st.CondEvictions = c.condEvictions
	c.condMu.Unlock()
	return st, nil
}

// crawlApp fetches one app's comment stream and package as configured.
func (c *Crawler) crawlApp(ctx context.Context, day int, a storeserver.AppJSON, commentCount, apkCount, apkBytes *int64, countMu *sync.Mutex) error {
	if c.cfg.FetchComments {
		var cs []storeserver.CommentJSON
		url := c.cfg.BaseURL + apiwire.AppPath(apiwire.Comments, a.ID)
		if err := c.getJSON(ctx, url, &cs); err != nil {
			return err
		}
		stream := make([]db.CommentRecord, len(cs))
		for i, cm := range cs {
			stream[i] = db.CommentRecord{App: a.ID, User: cm.User, Rating: cm.Rating, UnixTime: cm.UnixTime}
		}
		if n := c.db.AddComments(stream); n > 0 {
			countMu.Lock()
			*commentCount += int64(n)
			countMu.Unlock()
		}
	}
	if c.cfg.FetchAPKs && !c.db.HasAPK(a.ID, a.Version) {
		url := c.cfg.BaseURL + apiwire.AppPath(apiwire.APK, a.ID)
		n, err := c.getBytes(ctx, url)
		if err != nil {
			return err
		}
		if c.db.RecordAPK(a.ID, a.Version, n) {
			countMu.Lock()
			*apkCount++
			*apkBytes += n
			countMu.Unlock()
		}
	}
	return nil
}
