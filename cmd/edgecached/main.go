// Command edgecached runs the edge-cache tier: a caching proxy that sits
// between clients (crawlers, load generators) and an appstored origin,
// serving the /api/v1 surface from a byte-budgeted in-memory cache with a
// pluggable replacement policy. Its own telemetry — hits, misses,
// revalidations, stale serves, coalesced fetches — is exposed at /metrics.
//
// A faultinject scenario can be armed on the edge->origin leg to rehearse
// origin outages: the edge then demonstrates stale-while-unreachable
// serving instead of propagating errors.
//
// Usage:
//
//	edgecached -origin http://127.0.0.1:8080 -addr :8081 -policy category -capacity-mb 64
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"planetapps/internal/daemon"
	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
)

func main() {
	var (
		origin     = flag.String("origin", "http://127.0.0.1:8080", "store origin base URL")
		addr       = flag.String("addr", ":8081", "listen address")
		policy     = flag.String("policy", "lru", "replacement policy: lru, 2q, category")
		capacityMB = flag.Int("capacity-mb", 64, "cache budget in MiB of body bytes")
		retries    = flag.Int("origin-retries", 5, "origin retry budget before serving stale (>= 1: a zero edgecache.Config.OriginRetries means its default of 5)")
		hedge      = flag.Duration("hedge-after", 0, "hedge origin fetches still in flight after this long (0 = off)")
		seed       = flag.Uint64("seed", 1, "retry-jitter seed")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")

		chaos      = flag.String("chaos", "", "arm a fault scenario on the edge->origin leg: "+strings.Join(faultinject.Names(), ", ")+" (empty = off)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed")
		chaosScale = flag.Float64("chaos-scale", 1, "scale injected delays by this factor")
	)
	flag.Parse()

	if *capacityMB <= 0 {
		fmt.Fprintf(os.Stderr, "edgecached: -capacity-mb must be positive, got %d\n", *capacityMB)
		os.Exit(2)
	}
	if *retries < 1 {
		fmt.Fprintf(os.Stderr, "edgecached: -origin-retries must be >= 1, got %d\n", *retries)
		os.Exit(2)
	}

	cfg := edgecache.Config{
		Origin:        *origin,
		CapacityBytes: int64(*capacityMB) << 20,
		Policy:        *policy,
		OriginRetries: *retries,
		HedgeAfter:    *hedge,
		Seed:          *seed,
	}
	sc, err := faultinject.Parse(*chaos, *chaosScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var inj *faultinject.Injector
	if sc != nil {
		inj = faultinject.New(*sc, *chaosSeed, nil)
		cfg.OriginTransport = inj.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 16})
		log.Printf("edgecached: chaos scenario %q armed on the origin leg (seed %d, scale %g)",
			*chaos, *chaosSeed, *chaosScale)
	}
	s, err := edgecache.New(cfg)
	if err != nil {
		log.Fatalf("edgecached: %v", err)
	}
	ctx, stop := daemon.SignalContext()
	defer stop()

	log.Printf("edgecached: %s cache, %d MiB, fronting %s on %s", *policy, *capacityMB, *origin, *addr)
	if err := daemon.Serve(ctx, "edgecached", *addr, s.Handler(), *drain); err != nil {
		log.Fatalf("edgecached: %v", err)
	}
	st := s.Stats()
	log.Printf("edgecached: %d requests: %.1f%% hit, %.1f%% served from edge, %.1f%% origin offload, %.1f%% byte offload (%d revalidated, %d stale, %d coalesced)",
		st.Requests, st.HitRate(), st.CacheServeRate(), st.OriginOffload(), st.ByteOffload(),
		st.Revalidated, st.StaleServed, st.Coalesced)
	if inj != nil {
		log.Printf("edgecached: %d faults injected on the origin leg", inj.InjectedTotal())
	}
}
