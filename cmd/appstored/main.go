// Command appstored serves a synthetic appstore over HTTP — the stand-in
// for the live marketplaces the paper crawled. It simulates a market for
// the selected store profile and exposes the paginated JSON API the crawler
// consumes, optionally advancing one simulated day on a wall-clock timer.
// Telemetry is exposed at /metrics in the Prometheus text format.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain (bounded by a timeout) and a final stats line reports what was
// served.
//
// Usage:
//
//	appstored -store anzhi -addr :8080 -scale 0.5 -day-every 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"planetapps/internal/daemon"
	"planetapps/internal/faultinject"
	"planetapps/internal/fleet"
	"planetapps/internal/storeserver"
)

func main() {
	var (
		store     = flag.String("store", "anzhi", "store profile: slideme, 1mobile, appchina, anzhi")
		addr      = flag.String("addr", ":8080", "listen address")
		scale     = flag.Float64("scale", 0.5, "population scale factor")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		days      = flag.Int("days", 60, "simulated measurement period length")
		dayEvery  = flag.Duration("day-every", 0, "advance one simulated day per interval (0 = only via crawler-observed day 0); also sets the /api/v1 freshness lifetime")
		freshFor  = flag.Duration("fresh-for", 0, "declare /api/v1 responses fresh for this long (manual-roll deployments; ignored when -day-every is set)")
		rate      = flag.Float64("rate", 200, "per-client request rate limit (req/s, 0 = off)")
		burst     = flag.Int("burst", 50, "per-client rate limit burst (minimum 1)")
		comments  = flag.Int("comments", 20000, "commenting user population (0 = no comments)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		chaos      = flag.String("chaos", "", "arm a fault-injection scenario: "+strings.Join(faultinject.Names(), ", ")+" (empty = off)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed (same seed = same fault sequence)")
		chaosScale = flag.Float64("chaos-scale", 1, "scale injected delays and Retry-After hints by this factor")

		shardIndex = flag.Int("shard-index", 0, "this node's position on the fleet's consistent-hash ring")
		shardCount = flag.Int("shard-count", 0, "fleet size: serve only the ring partition owned by -shard-index and expose the /admin two-phase day-roll surface for gatewayd (0 = standalone full catalog)")
		vnodes     = flag.Int("vnodes", 0, "consistent-hash virtual nodes per shard (0 = default; must match gatewayd)")
	)
	flag.Parse()

	// A standalone store is a fleet of one. In a fleet every shard runs
	// the same deterministic simulation (same profile, seed, days) and
	// serves only the slice of it the consistent-hash ring assigns — no
	// shard ever needs another's data.
	opts := fleet.Options{
		Shards:       max(*shardCount, 1),
		Store:        *store,
		Scale:        *scale,
		Seed:         *seed,
		Days:         *days,
		CommentUsers: *comments,
		Vnodes:       *vnodes,
		Server: storeserver.Config{
			RatePerSec:  *rate,
			Burst:       *burst,
			DayInterval: *dayEvery,
			FreshFor:    *freshFor,
		},
	}
	sc, err := faultinject.Parse(*chaos, *chaosScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Chaos, opts.ChaosSeed = sc, *chaosSeed
	if sc != nil {
		log.Printf("appstored: chaos scenario %q armed (seed %d, scale %g)", *chaos, *chaosSeed, *chaosScale)
	}
	// The market is created without running the whole period: the server
	// advances days on demand (day 0 is already populated via warmup).
	srv, err := fleet.NewShard(opts, *shardIndex)
	if err != nil {
		log.Fatalf("appstored: %v", err)
	}

	ctx, stop := daemon.SignalContext()
	defer stop()

	// Profiling sits on its own listener so production traffic and the
	// debug surface never share a port; a dedicated mux (rather than the
	// pprof package's DefaultServeMux registration) keeps the store's
	// handler free of debug routes.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("appstored: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("appstored: pprof: %v", err)
			}
		}()
	}

	if *dayEvery > 0 {
		go func() {
			t := time.NewTicker(*dayEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := srv.AdvanceDay(); err != nil {
						log.Printf("appstored: period complete: %v", err)
						return
					}
					log.Printf("appstored: advanced to day %d", srv.Day())
				}
			}
		}()
	}

	handler := srv.Handler()
	if *shardCount > 0 {
		// Fleet members expose the /admin two-phase roll surface the
		// gateway's coordinated day-roll drives.
		handler = fleet.NewShardNode(srv)
	}
	log.Printf("appstored: serving %s shard %d/%d (%d apps) on %s",
		*store, *shardIndex, opts.Shards, srv.NumApps(), *addr)
	if err := daemon.Serve(ctx, "appstored", *addr, handler, *drain); err != nil {
		log.Fatalf("appstored: %v", err)
	}
	log.Printf("appstored: served %d requests (%d rate-limited, %d client buckets) over %d simulated days",
		srv.RequestsServed(), srv.RateLimited(), srv.LimiterBuckets(), srv.Day()+1)
	// The write buffer lives in memory: what no day-roll took is gone now.
	w := srv.WALStats()
	log.Printf("appstored: %d acknowledged writes lost at exit (not yet rolled into a day; %d accepted, %d merged)",
		w.Pending, w.Accepted, w.Merged)
	ar := srv.Arena()
	log.Printf("appstored: serving arenas: %d arenas / %d slabs (%d of %d pinned bytes live), %d slabs made, %d compactions (%d docs moved)",
		ar.ArenasLive, ar.SlabsLive, ar.LiveBytes, ar.PinnedBytes, ar.SlabsMade, ar.Compactions, ar.MovedDocs)
}
