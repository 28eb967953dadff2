// Command crawl replays the paper's data-collection pipeline (Figure 1):
// it crawls an appstore's JSON API daily — through an optional fleet of
// in-process HTTP proxies — and persists per-app statistics and comments
// into a JSONL database.
//
// By default it runs fully self-contained: fleet.NewStack starts an
// in-process appstore and a fleet of proxy nodes, and the command crawls
// the requested number of days and writes the database. Point -url at a
// running appstored to crawl an external store instead.
//
// A fault-injection scenario (-chaos) can be armed against the in-process
// store (or, for proxy-partition, against the proxy nodes: with -proxies 0
// it is refused) to demonstrate the resilient client crawling through
// failures; -hedge-after 0 switches hedging off.
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
	"os"
	"strings"
	"time"

	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
	"planetapps/internal/fleet"
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
		hedgeAfter = flag.Duration("hedge-after", 150*time.Millisecond, "launch a hedged duplicate of a request stuck this long (0 = off)")
		retries    = flag.Int("retries", 10, "per-request retry budget for unhinted failures, >= 0 (0 = one attempt; server-directed Retry-After waits are bounded separately, by time)")

		viaEdge    = flag.Bool("via-edge", false, "route the crawl through an in-process edge-cache tier")
		edgePolicy = flag.String("edge-policy", "lru", "edge replacement policy: lru, 2q, category")
		edgeMB     = flag.Int("edge-mb", 64, "edge cache budget in MiB")
		edgeChaos  = flag.String("edge-chaos", "", "inject faults on the edge->origin leg (scenario name; empty = off)")
	)
	flag.Parse()

	opts := fleet.CrawlOptions(*storeName, *scale, *seed, *days)
	opts.Shards, opts.ChaosSeed = *shards, *chaosSeed
	so := fleet.StackOptions{Origin: *url, Proxies: *proxies}
	if *viaEdge {
		so.Edge = &edgecache.Config{CapacityBytes: int64(*edgeMB) << 20, Policy: *edgePolicy}
	}
	var err error
	if *retries < 0 {
		err = fmt.Errorf("-retries must be >= 0, got %d", *retries)
	} else if opts.Chaos, err = faultinject.Parse(*chaos, *chaosScale); err == nil {
		so.EdgeChaos, err = faultinject.Parse(*edgeChaos, *chaosScale)
	}
	var st *fleet.Stack
	if err == nil {
		st, err = fleet.NewStack(opts, so)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}
	defer st.Close()
	log.Printf("crawl: crawling %s (in-process fleet %t, edge %t, %d proxy nodes, chaos %q, edge chaos %q)",
		st.URL, st.Inproc != nil, st.Edge != nil, len(st.ProxyURLs), *chaos, *edgeChaos)

	cfg := crawler.DefaultConfig(st.URL)
	cfg.Workers = *workers
	cfg.FetchComments = *comments
	cfg.FetchAPKs = *apks
	cfg.HedgeAfter = *hedgeAfter
	cfg.MaxRetries = *retries
	cfg.Proxies = st.ProxyURLs

	c, err := crawler.New(cfg, db.New())
	if err != nil {
		log.Fatalf("crawl: %v", err)
	}
	ctx := context.Background()
	var last crawler.Stats
	for day := 0; day < *days; day++ {
		if day > 0 {
			if err := st.AdvanceDay(); err != nil {
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
	log.Printf("crawl: resilience: %d attempts, %d retries, %d hedges (%d wins), %d invalid bodies, %d proxy demotions, p50 %.1fms p99 %.1fms",
		cs.Attempts, cs.Retries, cs.Hedges, cs.HedgeWins, cs.InvalidBodies, cs.ProxyDemotions, cs.LatencyP50MS, cs.LatencyP99MS)
	if ip := st.Inproc; ip != nil && ip.FaultsInjected() > 0 {
		log.Printf("crawl: chaos: %d faults injected by the store", ip.FaultsInjected())
	}
	for i, inj := range st.ProxyChaos {
		log.Printf("crawl: chaos: proxy node %d injected %d faults", i, inj.InjectedTotal())
	}
	if st.Edge != nil {
		est := st.Edge.Stats()
		log.Printf("crawl: edge: %d requests, %.1f%% hit, %.1f%% served from edge, %.1f%% origin offload (%d revalidated, %d stale, %d coalesced)",
			est.Requests, est.HitRate(), est.CacheServeRate(), est.OriginOffload(),
			est.Revalidated, est.StaleServed, est.Coalesced)
	}
	if st.EdgeChaos != nil {
		log.Printf("crawl: chaos: %d faults injected on the edge->origin leg", st.EdgeChaos.InjectedTotal())
	}
	log.Printf("crawl: wrote %s (%d apps, %d comments)", *out, c.DB().NumApps(), c.DB().NumComments())
}
