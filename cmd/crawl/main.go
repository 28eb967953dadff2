// Command crawl replays the paper's data-collection pipeline (Figure 1):
// it crawls an appstore's JSON API daily — through an optional fleet of
// in-process HTTP proxies — and persists per-app statistics and comments
// into a JSONL database.
//
// By default it runs fully self-contained: it starts an in-process
// appstore, a fleet of proxy nodes, crawls the requested number of days,
// and writes the database. Point -url at a running appstored to crawl an
// external store instead.
//
// A fault-injection scenario (-chaos) can be armed against the in-process
// store (or, for proxy-partition, against individual fleet nodes) to
// demonstrate the resilient client crawling through failures; -naive
// strips the recovery machinery for A/B comparison.
//
// Usage:
//
//	crawl -store anzhi -days 5 -proxies 4 -out crawl.jsonl
//	crawl -url http://127.0.0.1:8080 -days 3 -out crawl.jsonl
//	crawl -days 2 -chaos error-burst -out crawl.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
	"planetapps/internal/fleet"
	"planetapps/internal/marketsim"
	"planetapps/internal/proxy"
	"planetapps/internal/storeserver"
)

func main() {
	var (
		storeName = flag.String("store", "anzhi", "store profile for the in-process store")
		url       = flag.String("url", "", "crawl an external store at this base URL instead of starting one")
		days      = flag.Int("days", 5, "number of daily crawls")
		shards    = flag.Int("shards", 0, "in-process store fleet: N partitioned shards behind a consistent-hash gateway (0 = single store); day-rolls use the fleet's two-phase epoch swap")
		proxies   = flag.Int("proxies", 4, "in-process proxy fleet size (0 = direct)")
		workers   = flag.Int("workers", 8, "concurrent fetchers")
		out       = flag.String("out", "crawl.jsonl", "output database path")
		scale     = flag.Float64("scale", 0.25, "in-process store population scale")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		comments  = flag.Bool("comments", true, "crawl per-app comments")
		apks      = flag.Bool("apks", false, "download app packages (each version once)")

		chaos      = flag.String("chaos", "", "inject faults into the in-process store (scenario: "+strings.Join(faultinject.Names(), ", ")+"); proxy-partition injects per proxy node instead")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed")
		chaosScale = flag.Float64("chaos-scale", 1, "scale injected delays and Retry-After hints")
		naive      = flag.Bool("naive", false, "disable hedging, circuit breaking, adaptive concurrency, and proxy health scoring (A/B baseline)")
		hedgeAfter = flag.Duration("hedge-after", 150*time.Millisecond, "launch a hedged duplicate of a request stuck this long (0 = off)")
		retries    = flag.Int("retries", 10, "per-request retry budget for unhinted failures, >= 0 (0 = one attempt; server-directed Retry-After waits are bounded separately, by time)")

		viaEdge      = flag.Bool("via-edge", false, "route the crawl through an in-process edge-cache tier")
		edgePolicy   = flag.String("edge-policy", "lru", "edge replacement policy: lru, 2q, category")
		edgeMB       = flag.Int("edge-mb", 64, "edge cache budget in MiB")
		edgePrefetch = flag.Int("edge-prefetch", 0, "edge prefetch-warming budget per detail request (0 = off)")
		edgeChaos    = flag.String("edge-chaos", "", "inject faults on the edge->origin leg (scenario name; empty = off)")
	)
	flag.Parse()

	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "crawl: -retries must be >= 0, got %d\n", *retries)
		os.Exit(2)
	}
	var chaosSc faultinject.Scenario
	if *chaos != "" {
		if *url != "" {
			log.Fatal("crawl: -chaos needs the in-process store (drop -url)")
		}
		sc, err := faultinject.Lookup(*chaos)
		if err != nil {
			log.Fatalf("crawl: %v", err)
		}
		chaosSc = sc.Scale(*chaosScale)
	}

	base := *url
	var ip *fleet.Inproc
	if base != "" {
		if *shards > 0 {
			log.Fatal("crawl: -shards needs the in-process store (drop -url)")
		}
	} else {
		// The in-process origin is a fleet — of one node unless -shards
		// asks for more: the same deterministic market partitioned over N
		// store nodes behind the consistent-hash gateway. The crawl sees
		// one full catalog either way and day-rolls ride the two-phase
		// epoch swap.
		opts := fleet.Options{
			Shards: max(*shards, 1),
			Store:  *storeName,
			Scale:  *scale,
			Seed:   *seed,
			// The period must outlast the crawl; a short crawl keeps the
			// default period, which sets the daily download volume.
			Days:         max(*days+1, marketsim.DefaultConfig(catalog.Profile{}).Days),
			CommentUsers: 5000,
			Server:       storeserver.DefaultConfig(),
		}
		// Store-wide scenarios arm the stores themselves (so faults render
		// the API's native error shapes; in a fleet rules pinned to a
		// shard, like shard-kill's dead node 0, fire there only).
		// Scenarios whose every rule names a node, like proxy-partition,
		// instead wrap the individual proxy nodes below.
		if *chaos != "" && !nodeScoped(chaosSc) {
			opts.Chaos, opts.ChaosSeed = &chaosSc, *chaosSeed
			log.Printf("crawl: chaos scenario %q armed on the store (seed %d)", *chaos, *chaosSeed)
		}
		var err error
		ip, err = fleet.NewInproc(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawl:", err)
			os.Exit(2)
		}
		ts := httptest.NewServer(ip.Front())
		defer ts.Close()
		base = ts.URL
		log.Printf("crawl: started in-process %d-shard %s fleet at %s", opts.Shards, *storeName, base)
	}

	// The edge tier slots in between the crawler and whatever origin was
	// chosen above (in-process or external): the crawler's base URL simply
	// becomes the edge's listener.
	var edge *edgecache.Server
	var edgeInj *faultinject.Injector
	if *viaEdge {
		ecfg := edgecache.Config{
			Origin:         base,
			CapacityBytes:  int64(*edgeMB) << 20,
			Policy:         *edgePolicy,
			PrefetchBudget: *edgePrefetch,
		}
		if *edgeChaos != "" {
			sc, err := faultinject.Lookup(*edgeChaos)
			if err != nil {
				log.Fatalf("crawl: %v", err)
			}
			edgeInj = faultinject.New(sc.Scale(*chaosScale), *chaosSeed, nil)
			ecfg.OriginTransport = edgeInj.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 16})
			ecfg.OriginRetries = 8
			log.Printf("crawl: chaos scenario %q armed on the edge->origin leg (seed %d)", *edgeChaos, *chaosSeed)
		}
		var err error
		edge, err = edgecache.New(ecfg)
		if err != nil {
			log.Fatalf("crawl: %v", err)
		}
		defer edge.Close()
		es := httptest.NewServer(edge.Handler())
		defer es.Close()
		base = es.URL
		log.Printf("crawl: routing through an in-process %s edge cache (%d MiB) at %s", *edgePolicy, *edgeMB, base)
	}

	cfg := crawler.DefaultConfig(base)
	cfg.Workers = *workers
	cfg.FetchComments = *comments
	cfg.FetchAPKs = *apks
	cfg.Naive = *naive
	cfg.HedgeAfter = *hedgeAfter
	cfg.MaxRetries = *retries
	var nodeInjs []*faultinject.Injector
	if *proxies > 0 {
		var urls []string
		for i := 0; i < *proxies; i++ {
			p := proxy.New(fmt.Sprintf("planetlab-%02d", i), "cn")
			var h http.Handler = p.Handler()
			if *chaos != "" && nodeScoped(chaosSc) {
				inj := faultinject.NewForNode(chaosSc, *chaosSeed, i, nil)
				nodeInjs = append(nodeInjs, inj)
				h = inj.Wrap(h)
			}
			ps := httptest.NewServer(h)
			defer ps.Close()
			urls = append(urls, ps.URL)
		}
		pool, err := proxy.NewPool(urls)
		if err != nil {
			log.Fatalf("crawl: %v", err)
		}
		cfg.Proxies = pool
		log.Printf("crawl: routing through %d proxy nodes", pool.Size())
	}

	c, err := crawler.New(cfg, db.New())
	if err != nil {
		log.Fatalf("crawl: %v", err)
	}
	ctx := context.Background()
	var last crawler.Stats
	for day := 0; day < *days; day++ {
		if day > 0 && ip != nil {
			if err := ip.AdvanceDay(); err != nil {
				log.Printf("crawl: store period complete: %v", err)
				break
			}
		}
		stats, err := c.CrawlDay(ctx)
		if err != nil {
			log.Fatalf("crawl: day %d: %v", day, err)
		}
		last = stats
		log.Printf("crawl: day %d: %d apps, %d new comments, %d new APKs (%d bytes), %d requests (%d retries)",
			stats.Day, stats.Apps, stats.Comments, stats.APKs, stats.APKBytes, stats.Requests, stats.Retries)
	}
	if err := c.DB().SaveFile(*out); err != nil {
		log.Fatalf("crawl: saving %s: %v", *out, err)
	}
	cs := last.Client
	log.Printf("crawl: resilience: %d attempts, %d retries, %d hedges (%d wins), %d invalid bodies, %d breaker opens, %d proxy demotions, p50 %.1fms p99 %.1fms",
		cs.Attempts, cs.Retries, cs.Hedges, cs.HedgeWins, cs.InvalidBodies, cs.BreakerOpens, cs.ProxyDemotions, cs.LatencyP50MS, cs.LatencyP99MS)
	if ip != nil {
		if n := ip.FaultsInjected(); n > 0 {
			log.Printf("crawl: chaos: %d faults injected by the store", n)
		}
	}
	for i, inj := range nodeInjs {
		if n := inj.InjectedTotal(); n > 0 {
			log.Printf("crawl: chaos: proxy node %d injected %d faults", i, n)
		}
	}
	if edge != nil {
		est := edge.Stats()
		log.Printf("crawl: edge: %d requests, %.1f%% hit, %.1f%% served from edge, %.1f%% origin offload (%d revalidated, %d stale, %d coalesced)",
			est.Requests, est.HitRate(), est.CacheServeRate(), est.OriginOffload(),
			est.Revalidated, est.StaleServed, est.Coalesced)
		if edgeInj != nil {
			log.Printf("crawl: chaos: %d faults injected on the edge->origin leg", edgeInj.InjectedTotal())
		}
	}
	log.Printf("crawl: wrote %s (%d apps, %d comments)", *out, c.DB().NumApps(), c.DB().NumComments())
}

// nodeScoped reports whether every rule in sc targets a specific fleet
// node — such scenarios describe a proxy partition, not store misbehavior.
func nodeScoped(sc faultinject.Scenario) bool {
	if len(sc.Rules) == 0 {
		return false
	}
	for _, rl := range sc.Rules {
		if rl.Node < 0 {
			return false
		}
	}
	return true
}
