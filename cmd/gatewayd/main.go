// Command gatewayd fronts a fleet of appstored shards with the
// consistent-hash gateway: clients see one store — the full catalog, the
// v1 listing cursors, the same wire bytes a single node would serve —
// while reads scatter across the shard fleet and scale with it.
//
// Each shard must run appstored with -shard-index/-shard-count matching
// its position in the -shards list (and the same -store/-scale/-seed/
// -days/-vnodes), so the ring the gateway routes by is the ring the
// shards partitioned themselves by.
//
// The gateway also coordinates the fleet's day-rolls: -day-every drives
// the two-phase prepare/commit epoch swap across every shard, and POST
// /admin/roll triggers one on demand. /metrics aggregates every shard's
// telemetry behind the gateway's own.
//
// Usage:
//
//	gatewayd -addr :8080 -shards http://s0:8081,http://s1:8082 -day-every 30s
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"planetapps/internal/daemon"
	"planetapps/internal/fleet"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.String("shards", "", "comma-separated shard base URLs, in ring order (required)")
		vnodes   = flag.Int("vnodes", 0, "consistent-hash virtual nodes per shard (0 = default; must match the shards)")
		dayEvery = flag.Duration("day-every", 0, "advance the whole fleet one simulated day per interval via the two-phase epoch swap (0 = manual via POST /admin/roll)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-shard request timeout")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	)
	flag.Parse()

	var clients []fleet.ShardClient
	for _, raw := range strings.Split(*shards, ",") {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			continue
		}
		clients = append(clients, fleet.ShardClient{
			Name: "shard-" + strings.TrimPrefix(base, "http://"),
			Base: base,
			HTTP: &http.Client{Timeout: *timeout},
		})
	}
	if len(clients) == 0 {
		log.Fatal("gatewayd: -shards requires at least one shard URL")
	}

	gw := fleet.NewGateway(fleet.Config{Shards: clients, Vnodes: *vnodes})

	ctx, stop := daemon.SignalContext()
	defer stop()

	// Sanity-check the fleet at startup: all shards reachable and agreeing
	// on an epoch. A partially rolled fleet is repaired by the first
	// AdvanceFleet (both phases are idempotent), so incoherence is a
	// warning, not an error.
	if day, coherent, err := fleet.FleetDay(ctx, clients); err != nil {
		log.Printf("gatewayd: warning: fleet probe failed: %v", err)
	} else if !coherent {
		log.Printf("gatewayd: warning: shards disagree on the serving day (max %d); the next roll will converge them", day)
	} else {
		log.Printf("gatewayd: fleet of %d shards coherent at day %d", len(clients), day)
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
					day, err := fleet.AdvanceFleet(ctx, clients)
					if err != nil {
						log.Printf("gatewayd: fleet roll: %v", err)
						continue
					}
					log.Printf("gatewayd: fleet advanced to day %d", day)
				}
			}
		}()
	}

	log.Printf("gatewayd: fronting %d shards on %s", len(clients), *addr)
	if err := daemon.Serve(ctx, "gatewayd", *addr, gw, *drain); err != nil {
		log.Fatalf("gatewayd: %v", err)
	}
	st := gw.Stats()
	log.Printf("gatewayd: %d proxied, %d merged pages, %d epoch retries, %d epoch skews, %d shard errors",
		st.Proxied, st.MergedPages, st.EpochRetries, st.EpochSkews, st.ShardErrors)
}
