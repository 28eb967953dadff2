// Command loadtest replays an appstore workload as live HTTP traffic and
// reports latency/throughput telemetry for one run. (The measured baseline
// perf-oriented changes are judged against is cmd/bench.)
//
// The workload comes from a recorded binary trace (-trace, written by
// `simulate -trace`; format in internal/trace) or is synthesized live from
// the paper's workload models. The target is an external store (-target)
// or an in-process fleet spun up for the run (a single node is a fleet of
// one), in which case the report also echoes the server-side request
// counters so client and server accounting can be cross-checked.
//
// Usage:
//
//	loadtest -events 100000 -mode both -stages 400x5s,800x5s -vus 64
//	loadtest -trace workload.trace -target http://127.0.0.1:8080 -mode open -stages 200x30s
//	loadtest -mode closed -vus 128 -think 10ms -out report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"net/http"

	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
	"planetapps/internal/fleet"
	"planetapps/internal/loadgen"
	"planetapps/internal/model"
	"planetapps/internal/resilient"
	"planetapps/internal/storeserver"
	"planetapps/internal/trace"
	"planetapps/internal/wal"
)

func main() {
	var (
		target    = flag.String("target", "", "store base URL; empty starts an in-process store")
		tracePath = flag.String("trace", "", "binary trace file to replay; empty synthesizes from the workload model")
		mode      = flag.String("mode", "open", "load discipline: open, closed, or both")
		stages    = flag.String("stages", "200x5s", "open-loop schedule as RPSxDURATION, comma separated")
		vus       = flag.Int("vus", 32, "closed-loop virtual users")
		think     = flag.Duration("think", 2*time.Millisecond, "closed-loop mean think time")
		warmup    = flag.Duration("warmup", 500*time.Millisecond, "initial window excluded from statistics")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		inflight  = flag.Int("max-inflight", 4096, "open-loop concurrent request cap")
		apkEvery  = flag.Int("apk-every", 0, "download the APK for every Nth event (0 = metadata only)")
		gz        = flag.Bool("gzip", false, "negotiate gzip transfer (Accept-Encoding: gzip) and report wire bytes by encoding")
		events    = flag.Int64("events", 100000, "stop after replaying this many workload events (0 = source length)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		out       = flag.String("out", "", "write the JSON report here instead of stdout")

		modelKind = flag.String("model", "clustering", "synthesized workload model: zipf, zipf-amo, clustering")
		apps      = flag.Int("apps", 0, "synthesized app population (0 = match in-process catalog, else 5000)")
		users     = flag.Int("users", 20000, "synthesized user population")
		dpu       = flag.Float64("dpu", 8, "synthesized mean downloads per user")
		zipfG     = flag.Float64("zipf", 1.4, "global Zipf exponent")
		zipfC     = flag.Float64("zipf-cluster", 1.4, "within-cluster Zipf exponent")
		clusterP  = flag.Float64("cluster-p", 0.9, "clustering probability p")
		clusters  = flag.Int("clusters", 30, "cluster count")

		store       = flag.String("store", "slideme", "in-process store profile")
		serverScale = flag.Float64("scale", 0.2, "in-process store population scale")
		serverRate  = flag.Float64("server-rate", 0, "in-process per-client rate limit (req/s, 0 = off)")
		serverBurst = flag.Int("server-burst", 50, "in-process rate limit burst (minimum 1)")
		serverLat   = flag.Duration("server-latency", 0, "in-process store: simulated per-request service time (models a fixed-speed store machine)")
		serverCap   = flag.Int("server-capacity", 0, "in-process store: concurrent request slots per node (0 = unbounded; with -server-latency models max throughput capacity/latency per node)")

		shards    = flag.Int("shards", 0, "in-process store fleet: N partitioned shards behind a consistent-hash gateway (0 or 1 = a single node, driven directly)")
		vnodes    = flag.Int("vnodes", 0, "fleet consistent-hash virtual nodes per shard (0 = default; more vnodes = better partition balance)")
		listEvery = flag.Int("list-every", 0, "issue a catalog listing request for every Nth event (0 = off)")

		writeMix = flag.Float64("write-mix", 0, "fraction of events that also drive the write funnel (POST download/rate/comments)")

		dayRoll = flag.Duration("day-roll", 0, "day-roll scenario: advance the in-process store one day this long into the measured window and report pre/post-swap latency separately (0 = off)")

		edge         = flag.Bool("edge", false, "front the target with an in-process edge-cache tier and drive load through it")
		edgePolicy   = flag.String("edge-policy", "lru", "edge replacement policy: lru, 2q, category")
		edgeMB       = flag.Float64("edge-mb", 64, "edge cache budget in MiB")
		edgePrefetch = flag.Int("edge-prefetch", 0, "edge prefetch-warming budget per detail request (0 = off)")
		originFresh  = flag.Duration("origin-fresh", 0, "in-process store: declare /api/v1 responses fresh for this long (0 = always revalidate)")

		chaos      = flag.String("chaos", "", "arm a fault-injection scenario on the in-process store: "+strings.Join(faultinject.Names(), ", "))
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed")
		chaosScale = flag.Float64("chaos-scale", 1, "scale injected delays and Retry-After hints")
		resil      = flag.Bool("resilient", false, "drive load through the resilient client (retries, hedged requests, circuit breaker) instead of a plain http.Client")
		hedgeAfter = flag.Duration("hedge-after", 100*time.Millisecond, "resilient client: hedge requests stuck this long (0 = off)")
		maxHedges  = flag.Int("max-hedges", 1, "resilient client: extra copies a stuck request may launch, one per hedge-after interval")
	)
	flag.Parse()

	if *chaos != "" && *target != "" {
		log.Fatal("loadtest: -chaos needs the in-process store (drop -target)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Resolve the target: an external URL, or an in-process fleet — of one
	// node unless -shards asks for more.
	baseURL := *target
	var ip *fleet.Inproc
	if baseURL != "" {
		if *shards > 0 {
			log.Fatal("loadtest: -shards needs the in-process store (drop -target)")
		}
		if *dayRoll > 0 {
			log.Fatal("loadtest: -day-roll requires the in-process store (drop -target)")
		}
	} else {
		opts := fleet.Options{
			Shards: max(*shards, 1),
			Store:  *store,
			Scale:  *serverScale,
			Seed:   *seed,
			Vnodes: *vnodes,
			Server: storeserver.Config{
				RatePerSec: *serverRate,
				Burst:      *serverBurst,
				FreshFor:   *originFresh,
				Latency:    *serverLat,
				Capacity:   *serverCap,
			},
		}
		if *chaos != "" {
			sc, err := faultinject.Lookup(*chaos)
			if err != nil {
				log.Fatalf("loadtest: %v", err)
			}
			sc = sc.Scale(*chaosScale)
			opts.Chaos, opts.ChaosSeed = &sc, *chaosSeed
			log.Printf("loadtest: chaos scenario %q armed (seed %d, scale %g)", *chaos, *chaosSeed, *chaosScale)
		}
		var err error
		ip, err = fleet.NewInproc(opts)
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		ts := httptest.NewServer(ip.Front())
		defer ts.Close()
		baseURL = ts.URL
		log.Printf("loadtest: in-process %d-shard %s fleet (%d apps) at %s",
			opts.Shards, *store, ip.NumApps(), baseURL)
		if *apps == 0 {
			*apps = ip.NumApps()
		}
	}
	if *apps == 0 {
		*apps = 5000
	}

	// The edge tier fronts whatever target was resolved above; the load
	// generator then drives the edge, and the origin only sees misses,
	// revalidations, and prefetch warming.
	var edgeSrv *edgecache.Server
	if *edge {
		es, err := edgecache.New(edgecache.Config{
			Origin:         baseURL,
			CapacityBytes:  int64(*edgeMB * (1 << 20)),
			Policy:         *edgePolicy,
			PrefetchBudget: *edgePrefetch,
			Seed:           *seed,
		})
		if err != nil {
			log.Fatalf("loadtest: edge: %v", err)
		}
		edgeSrv = es
		defer es.Close()
		ets := httptest.NewServer(es.Handler())
		defer ets.Close()
		baseURL = ets.URL
		log.Printf("loadtest: driving through an in-process %s edge cache (%.1f MiB) at %s",
			*edgePolicy, *edgeMB, baseURL)
	}

	// Build the workload source factory: each run gets a fresh source over
	// the same deterministic workload.
	newSource, srcDesc, err := sourceFactory(ctx, *tracePath, *modelKind, model.Config{
		Apps: *apps, Users: *users, DownloadsPerUser: *dpu,
		ZipfGlobal: *zipfG, ZipfCluster: *zipfC, ClusterP: *clusterP, Clusters: *clusters,
	}, *seed)
	if err != nil {
		log.Fatalf("loadtest: %v", err)
	}
	log.Printf("loadtest: workload: %s", srcDesc)

	stageList, err := parseStages(*stages)
	if err != nil {
		log.Fatalf("loadtest: %v", err)
	}

	// The resilient client slots under loadgen as a plain http.Client: its
	// RoundTripper adapter runs every GET through the full recovery stack
	// (retries, hedging, per-host circuit breaking) and surfaces the final
	// status. AIMD admission is deliberately off — an open-loop generator
	// must not let the client self-throttle arrivals.
	var rc *resilient.Client
	if *resil {
		rc = resilient.New(resilient.Config{
			Transport: &http.Transport{
				MaxIdleConns:        *inflight,
				MaxIdleConnsPerHost: *inflight,
			},
			MaxRetries:     4,
			AttemptTimeout: *timeout,
			HedgeAfter:     *hedgeAfter,
			MaxHedges:      *maxHedges,
			Breaker:        true,
			Seed:           *seed,
		})
	}

	base := loadgen.Config{
		BaseURL:     baseURL,
		Stages:      stageList,
		Users:       *vus,
		Think:       *think,
		MaxInFlight: *inflight,
		Warmup:      *warmup,
		Timeout:     *timeout,
		MaxEvents:   *events,
		APKEvery:    *apkEvery,
		ListEvery:   *listEvery,
		WriteMix:    *writeMix,
		AcceptGzip:  *gz,
		Seed:        *seed,
	}
	if rc != nil {
		base.Client = &http.Client{Transport: rc.Transport()}
	}
	if *dayRoll > 0 {
		// The two-phase prepare/commit epoch swap across every shard,
		// driven mid-load.
		base.DayRollAfter, base.DayRollFn = *dayRoll, ip.AdvanceDay
	}

	var modes []loadgen.Mode
	switch *mode {
	case "both":
		modes = []loadgen.Mode{loadgen.OpenLoop, loadgen.ClosedLoop}
	default:
		m, err := loadgen.ParseMode(*mode)
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		modes = []loadgen.Mode{m}
	}

	combined := map[string]any{}
	for _, m := range modes {
		cfg := base
		cfg.Mode = m
		g, err := loadgen.New(cfg)
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		src, err := newSource()
		if err != nil {
			log.Fatalf("loadtest: source: %v", err)
		}
		log.Printf("loadtest: running %s loop", m)
		rep, err := g.Run(ctx, src)
		if err != nil {
			log.Fatalf("loadtest: %s run: %v", m, err)
		}
		combined[m.String()] = rep
		if rep.Requests == 0 && rep.WarmupRequests > 0 {
			log.Printf("loadtest: %s: run finished inside the %v warmup — all %d requests excluded; shorten -warmup or lengthen the run",
				m, *warmup, rep.WarmupRequests)
		}
		log.Printf("loadtest: %s: %d events, %d requests, %.0f rps, p50 %.2fms p99 %.2fms, %d limited, %d errors",
			m, rep.Events, rep.Requests, rep.ThroughputRPS,
			classLatency(rep).P50, classLatency(rep).P99, rep.RateLimited, rep.Errors)
		if len(rep.Writes) > 0 {
			var posts, dup, bp, rej, werr int64
			for _, wr := range rep.Writes {
				posts += wr.Posts
				dup += wr.Duplicate
				bp += wr.Backpressure429
				rej += wr.Rejected
				werr += wr.Errors
			}
			log.Printf("loadtest: %s: writes: %d posts, %d accepted, %d deduped, %d duplicate, %d backpressure, %d rejected, %d errors",
				m, posts, rep.WriteAccepted, rep.WriteDeduped, dup, bp, rej, werr)
		}
		if rep.GzipResponses > 0 || rep.GzipBytes > 0 {
			log.Printf("loadtest: %s: wire: %d gzip responses (%d bytes compressed), %d bytes identity",
				m, rep.GzipResponses, rep.GzipBytes, rep.IdentityBytes)
		}
		if dr := rep.DayRoll; dr != nil {
			if !dr.Rolled {
				log.Printf("loadtest: %s: day roll never fired — run shorter than warmup+%v", m, *dayRoll)
			} else if c := detailClass(rep); c != nil && c.PreRollMS != nil && c.PostRollMS != nil {
				log.Printf("loadtest: %s: day roll at %.2fs took %.2fms; detail p99 pre %.2fms (%d reqs) -> post %.2fms (%d reqs); %d mixed-epoch responses",
					m, dr.AtSec, dr.RollMS, c.PreRollMS.P99, c.PreRollCount, c.PostRollMS.P99, c.PostRollCount, dr.MixedEpochResponses)
			}
		}
	}
	if edgeSrv != nil {
		est := edgeSrv.Stats()
		combined["edge"] = map[string]any{
			"stats":            est,
			"hit_rate":         est.HitRate(),
			"cache_serve_rate": est.CacheServeRate(),
			"origin_offload":   est.OriginOffload(),
			"byte_offload":     est.ByteOffload(),
		}
		log.Printf("loadtest: edge: %d requests, %.1f%% hit, %.1f%% served from edge, %.1f%% origin offload, %.1f%% byte offload (%d evictions, %d prefetch fills/%d useful)",
			est.Requests, est.HitRate(), est.CacheServeRate(), est.OriginOffload(), est.ByteOffload(),
			est.Evictions, est.PrefetchFills, est.PrefetchHits)
	}
	if ip != nil {
		var served, limited int64
		var buckets int
		perShard := make([]int64, len(ip.Servers))
		for i, s := range ip.Servers {
			perShard[i] = s.RequestsServed()
			served += s.RequestsServed()
			limited += s.RateLimited()
			buckets += s.LimiterBuckets()
		}
		gst := ip.Gateway.Stats()
		combined["fleet"] = map[string]any{
			"shards":           len(ip.Servers),
			"day":              ip.Day(),
			"requests_served":  served,
			"rate_limited":     limited,
			"limiter_buckets":  buckets,
			"per_shard_served": perShard,
			"gateway":          gst,
		}
		log.Printf("loadtest: fleet: %d shards served %d requests (gateway: %d proxied, %d merged pages, %d epoch retries, %d epoch skews, %d shard errors)",
			len(ip.Servers), served, gst.Proxied, gst.MergedPages, gst.EpochRetries, gst.EpochSkews, gst.ShardErrors)
		if *chaos != "" {
			combined["chaos"] = map[string]any{
				"scenario":       *chaos,
				"seed":           *chaosSeed,
				"scale":          *chaosScale,
				"injected_total": ip.FaultsInjected(),
			}
		}
		if *writeMix > 0 {
			// Drain the WAL with two quiescent rolls: the first merges every
			// write still buffered when the run ended, the second proves the
			// buffer is empty. After that, accepted == merged is the no-lost-
			// acknowledged-writes invariant the CI smoke gate checks.
			for i := 0; i < 2; i++ {
				if err := ip.AdvanceDay(); err != nil {
					log.Fatalf("loadtest: drain roll: %v", err)
				}
			}
			var agg wal.Stats
			perShard := make([]wal.Stats, 0, len(ip.Servers))
			for _, s := range ip.Servers {
				st := s.WALStats()
				perShard = append(perShard, st)
				agg.Accepted += st.Accepted
				agg.Merged += st.Merged
				agg.Deduped += st.Deduped
				agg.Duplicates += st.Duplicates
				agg.Backpressure += st.Backpressure
				agg.Pending += st.Pending
			}
			combined["wal"] = struct {
				wal.Stats
				PerShard []wal.Stats `json:"per_shard"`
			}{agg, perShard}
			log.Printf("loadtest: wal: %d accepted, %d merged, %d deduped, %d duplicates, %d backpressure, %d still pending",
				agg.Accepted, agg.Merged, agg.Deduped, agg.Duplicates, agg.Backpressure, agg.Pending)
		}
	}
	if rc != nil {
		cs := rc.Stats()
		combined["client"] = cs
		log.Printf("loadtest: resilient client: %d attempts, %d retries, %d hedges (%d wins), %d breaker opens",
			cs.Attempts, cs.Retries, cs.Hedges, cs.HedgeWins, cs.BreakerOpens)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(combined); err != nil {
		log.Fatalf("loadtest: writing report: %v", err)
	}
}

// classLatency picks the detail-class latency summary for the log line.
func classLatency(rep *loadgen.Report) loadgen.LatencySummary {
	if c := detailClass(rep); c != nil {
		return c.LatencyMS
	}
	return loadgen.LatencySummary{}
}

// detailClass finds the detail-class report, nil if absent.
func detailClass(rep *loadgen.Report) *loadgen.ClassReport {
	for i := range rep.Classes {
		if rep.Classes[i].Class == loadgen.ClassDetail {
			return &rep.Classes[i]
		}
	}
	return nil
}

// traceFile is a trace replay that owns its file; Generator.Run closes it.
type traceFile struct {
	loadgen.Source
	tr *trace.Reader
	f  *os.File
}

func (t traceFile) Close() error { return t.f.Close() }

// sourceFactory returns a function producing fresh Sources over the same
// workload: re-opening the trace file, or re-streaming the model with the
// same seed.
func sourceFactory(ctx context.Context, tracePath, kind string, cfg model.Config, seed uint64) (func() (loadgen.Source, error), string, error) {
	if tracePath != "" {
		open := func() (traceFile, error) {
			f, err := os.Open(tracePath)
			if err != nil {
				return traceFile{}, err
			}
			tr, err := trace.NewReader(f)
			if err != nil {
				f.Close()
				return traceFile{}, err
			}
			return traceFile{loadgen.NewTraceSource(tr), tr, f}, nil
		}
		// Validate eagerly so flag errors surface before the run.
		t, err := open()
		if err != nil {
			return nil, "", err
		}
		t.Close()
		desc := fmt.Sprintf("trace %s (%d apps, %d users)", tracePath, t.tr.Apps(), t.tr.Users())
		return func() (loadgen.Source, error) { return open() }, desc, nil
	}
	var mk model.Kind
	switch kind {
	case "zipf":
		mk = model.Zipf
	case "zipf-amo":
		mk = model.ZipfAtMostOnce
	case "clustering":
		mk = model.AppClustering
	default:
		return nil, "", fmt.Errorf("unknown model %q (want zipf, zipf-amo, clustering)", kind)
	}
	sim, err := model.NewSimulator(mk, cfg)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("live %s model (%d apps, %d users, %.1f downloads/user)",
		mk, cfg.Apps, cfg.Users, cfg.DownloadsPerUser)
	return func() (loadgen.Source, error) {
		return loadgen.NewModelSource(ctx, sim, seed), nil
	}, desc, nil
}

// parseStages parses "400x5s,800x10s" into a stage list.
func parseStages(s string) ([]loadgen.Stage, error) {
	var out []loadgen.Stage
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rpsStr, durStr, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("bad stage %q (want RPSxDURATION, e.g. 400x5s)", part)
		}
		var rps float64
		if _, err := fmt.Sscanf(rpsStr, "%g", &rps); err != nil {
			return nil, fmt.Errorf("bad stage rate %q: %v", rpsStr, err)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("bad stage duration %q: %v", durStr, err)
		}
		out = append(out, loadgen.Stage{RPS: rps, Duration: dur})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no stages in %q", s)
	}
	return out, nil
}
