package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"planetapps/internal/edgecache"
	"planetapps/internal/fleet"
	"planetapps/internal/gcstats"
)

// counters is one reading of everything the tiers and the runtime count,
// taken at the two ends of the untraced window of a --trace 1 run.
type counters struct {
	edge      edgecache.Stats
	gateway   fleet.Stats
	listCalls int64

	served     []int64 // per serving store: requests served
	carried    int64   // summed over serving stores from here on
	reencoded  int64
	status304  int64
	slabsLive  int64
	slabsMade  int64
	compaction int64
	walAccept  int64
	walMerged  int64
	walDup     int64
	walBackp   int64
	batches    int64 // wal batches sealed
	batchRecs  int64 // records in them
	flushNS    int64 // summed open→seal time of those batches
	buildNS    int64 // summed snapshot build time
	builds     int64
	mergeNS    int64 // summed gateway listing time
	merges     int64

	mem runtime.MemStats
	gc  gcstats.Stats
}

func (r *run) readCounters() counters {
	var c counters
	rg := r.rig
	if rg.edge != nil {
		c.edge = rg.edge.Stats()
	}
	if rg.gateway != nil {
		c.gateway = rg.gateway.Stats()
		h := rg.gateway.Registry().Histogram("gateway_merge_seconds").Snapshot()
		c.mergeNS, c.merges = h.Sum, h.Count
	}
	c.listCalls = rg.listCalls.Load()
	for _, s := range rg.stores() {
		reg := s.Registry()
		c.served = append(c.served, s.RequestsServed())
		c.carried += reg.Counter("store_respcache_carried_total").Value()
		c.reencoded += reg.Counter("store_respcache_reencoded_total").Value()
		for _, route := range []string{"stats", "list", "detail", "comments"} {
			c.status304 += reg.Counter(fmt.Sprintf("store_responses_total{route=%q,code=\"304\"}", route)).Value()
		}
		a := s.Arena()
		c.slabsLive += a.SlabsLive
		c.slabsMade += a.SlabsMade
		c.compaction += a.Compactions
		w := s.WALStats()
		c.walAccept += w.Accepted
		c.walMerged += w.Merged
		c.walDup += w.Duplicates
		c.walBackp += w.Backpressure
		b := reg.Histogram("wal_batch_records").Snapshot()
		c.batches += b.Count
		c.batchRecs += b.Sum
		c.flushNS += reg.Histogram("wal_flush_seconds").Snapshot().Sum
		sb := reg.Histogram("store_snapshot_build_seconds").Snapshot()
		c.buildNS += sb.Sum
		c.builds += sb.Count
	}
	runtime.ReadMemStats(&c.mem)
	c.gc = gcstats.Read()
	return c
}

// ratio is a/b, and 0 where the denominator is: a count that did not
// happen on this workload (no edge, no rolls, no writes) reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the two readings around the untraced window into
// the counter block of the per-layer metrics.
func (r *run) counterMetrics(a, b counters, ws *windowStats) {
	m, x := r.out.Metrics, r.out.Extra
	f := func(v int64) float64 { return float64(v) }
	ops := f(ws.ticks[len(ws.ticks)-1].ops - ws.ticks[0].ops)
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	er := f(b.edge.Requests - a.edge.Requests)
	m["edgecache.hit_share"] = metric{ratio(f(b.edge.Hits-a.edge.Hits), er), "share"}
	m["edgecache.origin_fetches_per_op"] = metric{ratio(f(b.edge.OriginRequests-a.edge.OriginRequests), er), "1/op"}
	m["edgecache.byte_offload_share"] = metric{0, "share"}
	if served := f(b.edge.ServedBytes - a.edge.ServedBytes); served > 0 {
		m["edgecache.byte_offload_share"] = metric{1 - f(b.edge.OriginBytes-a.edge.OriginBytes)/served, "share"}
	}
	m["edgecache.evictions_per_kop"] = metric{1000 * ratio(f(b.edge.Evictions-a.edge.Evictions), er), "1/kop"}
	m["edgecache.resident_mb"] = metric{f(b.edge.Bytes) / (1 << 20), "MiB"}

	pages := f(b.gateway.MergedPages - a.gateway.MergedPages)
	m["fleet.shard_calls_per_list"] = metric{ratio(f(b.listCalls-a.listCalls), pages), "1/op"}
	count("fleet.epoch_retries", f(b.gateway.EpochRetries-a.gateway.EpochRetries))
	count("fleet.epoch_skews", f(b.gateway.EpochSkews-a.gateway.EpochSkews))
	count("fleet.shard_errors", f(b.gateway.ShardErrors-a.gateway.ShardErrors))
	var most, sum float64
	for i := range b.served {
		d := f(b.served[i] - a.served[i])
		sum += d
		most = max(most, d)
	}
	m["fleet.shard_imbalance"] = metric{0, "ratio"}
	if len(r.rig.shards) > 0 {
		m["fleet.shard_imbalance"] = metric{ratio(most, sum/f(int64(len(b.served)))), "ratio"}
	}

	rolls := f(int64(len(r.rolls)))
	m["storeserver.carried_docs_per_roll"] = metric{ratio(f(b.carried-a.carried), rolls), "1/roll"}
	m["storeserver.reencoded_docs_per_roll"] = metric{ratio(f(b.reencoded-a.reencoded), rolls), "1/roll"}
	m["storeserver.status_304_share"] = metric{ratio(f(b.status304-a.status304), sum), "share"}
	count("arena.slabs_live", f(b.slabsLive))
	count("arena.slabs_made", f(b.slabsMade-a.slabsMade))
	count("arena.compactions", f(b.compaction-a.compaction))

	count("wal.accepted", f(b.walAccept-a.walAccept))
	count("wal.merged", f(b.walMerged-a.walMerged))
	count("wal.duplicates", f(b.walDup-a.walDup))
	count("wal.backpressure", f(b.walBackp-a.walBackp))
	m["wal.batch_records_mean"] = metric{ratio(f(b.batchRecs-a.batchRecs), f(b.batches-a.batches)), "count"}

	m["proc.allocs_per_op"] = metric{ratio(f(int64(b.mem.Mallocs-a.mem.Mallocs)), ops), "1/op"}
	m["proc.alloc_bytes_per_op"] = metric{ratio(f(int64(b.mem.TotalAlloc-a.mem.TotalAlloc)), ops), "B/op"}
	m["gc.cpu_share"] = metric{b.gc.Since(a.gc).CPUFraction(), "share"}
	count("gc.cycles", f(int64(b.mem.NumGC-a.mem.NumGC)))
	m["gc.pause_mean_us"] = metric{ratio(f(int64(b.mem.PauseTotalNs-a.mem.PauseTotalNs))/1e3, f(int64(b.mem.NumGC-a.mem.NumGC))), "us"}
	var wire int64
	for _, c := range r.clients {
		wire += c.wireBytes
	}
	m["client.bytes_per_op"] = metric{ratio(f(wire), ops), "B/op"}

	// Times the tiers' own histograms hold, exact as sum over count. They
	// exist only where the tier did that work, so they are reported, not
	// declared.
	extra := func(name string, ns, n int64, unit string, div float64) {
		if n > 0 {
			x[name] = metric{f(ns) / f(n) / div, unit}
			r.out.Samples[name] = int(n)
		}
	}
	extra("fleet.merge_us_mean", b.mergeNS-a.mergeNS, b.merges-a.merges, "us", 1e3)
	extra("storeserver.snapshot_build_ms_mean", b.buildNS-a.buildNS, b.builds-a.builds, "ms", 1e6)
	extra("wal.flush_us_mean", b.flushNS-a.flushNS, b.batches-a.batches, "us", 1e3)
}

// tracedPass runs one client alone twice over the same kind of work,
// untraced and then traced, and turns the second pass's spans into the
// span block: where the time one request takes is spent, tier by tier.
func (r *run) tracedPass(untraced, traced time.Duration) {
	c := r.clients[0]
	pass := func(d time.Duration) (p50 float64) {
		for cl := range c.samples {
			c.samples[cl] = c.samples[cl][:0]
		}
		c.recording, c.epoch = true, time.Now()
		r.wl.single(r, c, d)
		c.recording = false
		lat := make([]int64, 0, len(c.samples[classDetail]))
		for _, s := range c.samples[classDetail] {
			lat = append(lat, s.lat)
		}
		slices.Sort(lat)
		v, _ := percentile(lat, 50) //nolint:errcheck // p50 of a non-empty pass; an empty one reads 0
		return float64(v)
	}
	plain := pass(untraced)

	tr := r.rig.tr
	c.tracer, c.classOf = tr, map[int64]opClass{}
	tr.on.Store(true)
	withSpans := pass(traced)
	tr.on.Store(false)
	spans, classOf := tr.take(), c.classOf
	c.tracer, c.classOf = nil, nil

	a := attribute(spans, classOf)
	m, x := r.out.Metrics, r.out.Extra
	var total, requests float64
	for cl := range a.clientNS {
		total += float64(a.clientNS[cl])
		requests += float64(a.requests[cl])
	}
	m["trace.client_us"] = metric{ratio(total/1e3, requests), "us"}
	m["trace.overhead_share"] = metric{ratio(withSpans-plain, plain), "share"}
	x["trace.untraced_p50_us"] = metric{plain / 1e3, "us"}
	x["trace.traced_p50_us"] = metric{withSpans / 1e3, "us"}
	r.out.Samples["trace.client_us"] = int(requests)
	for cl, class := range classNames {
		for t := tierClient; t < numTiers; t++ {
			if !spanMetric(opClass(cl), t) {
				continue
			}
			ns := float64(a.selfNS[cl][t])
			m[tierMetric[t]+"_share."+class] = metric{ratio(ns, total), "share"}
			if n := float64(a.requests[cl]); n > 0 && ns > 0 {
				x[tierMetric[t]+"_us."+class] = metric{ns / 1e3 / n, "us"}
				r.out.Samples[tierMetric[t]+"_us."+class] = int(n)
			}
		}
	}
	path := filepath.Join(r.outDir, "spans-"+r.wl.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		r.out.CheckFailures = append(r.out.CheckFailures, "writing spans: "+err.Error())
	}
}

// spanMetric says which (class, tier) pairs can occur at all: the edge
// proxies GETs only and no workload lists through it.
func spanMetric(cl opClass, t tier) bool {
	return cl == classDetail || (t != tierEdge && t != tierEdgeOrigin)
}
