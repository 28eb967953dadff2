package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"planetapps/internal/edgecache"
	"planetapps/internal/fleet"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
	"planetapps/internal/wal"
)

// directSizes are the fixed iteration counts of the direct-call block.
type directSizes struct {
	apps, commentUsers      int
	hot, fills, pages       int // store: hot GETs, cold fills, cursor pages
	gwDetails, gwPages      int
	edgeHits, edgeMisses    int
	ringLookups             int
	pendingWrites           int // comment writes waiting when advance_day_writes_ms rolls
	appendsEach, rotateRecs int
}

var (
	fullDirect  = directSizes{20000, 4000, 20000, 4000, 100, 4000, 100, 20000, 2000, 1000000, 10000, 300, 100000}
	smokeDirect = directSizes{2000, 400, 2000, 500, 20, 500, 20, 2000, 500, 100000, 1000, 50, 10000}
)

// sink is a ResponseWriter that keeps only what a caller of a handler
// might look at afterwards; the direct calls time the handler, not a
// transport.
type sink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newSink() *sink { return &sink{h: make(http.Header, 16)} }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }
func (s *sink) WriteHeader(code int)        { s.code = code }

// call serves req into s, reset.
func (s *sink) call(h http.Handler, req *http.Request) {
	clear(s.h)
	s.code = http.StatusOK
	s.body.Reset()
	h.ServeHTTP(s, req)
}

func get(path string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	return req
}

// timed runs fn n times on this goroutine and returns the mean time and
// mean heap allocations per call.
func timed(n int, fn func(i int)) (ns, allocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&b)
	return float64(el) / float64(n), float64(b.Mallocs-a.Mallocs) / float64(n)
}

// medianOf times fn n times and returns the median.
func medianOf(n int, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}

// directCalls is the third source of per-layer numbers: exported
// functions and handlers called from one goroutine, fixed iteration
// counts, tiers wired with fleet.HandlerTransport so no socket, no
// scheduler hand-off and no second client is in the number. It builds a
// small rig of its own, so it reads the same on every workload.
func (r *run) directCalls() {
	ds := fullDirect
	if r.out.Smoke {
		ds = smokeDirect
	}
	m := r.out.Metrics
	fail := func(err error) {
		r.out.CheckFailures = append(r.out.CheckFailures, "direct calls: "+err.Error())
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ctx := context.Background()
	s := newSink()
	detail := func(id int) string { return apiPrefix + "/apps/" + strconv.Itoa(id) }

	// --- marketsim: one simulated day, one export.
	mk, err := newMarket(ds.apps)
	if err != nil {
		fail(err)
		return
	}
	m["marketsim.step_ms"] = metric{ms(medianOf(5, func() { mk.Step() })), "ms"} //nolint:errcheck // 4096-day period
	m["marketsim.export_ms"] = metric{ms(medianOf(5, func() { mk.Export() })), "ms"}

	// --- storeserver: one unsharded node.
	mk, err = newMarket(ds.apps)
	if err != nil {
		fail(err)
		return
	}
	node := storeserver.New(mk, storeConfig())
	h := node.Handler()
	per, _ := timed(ds.fills, func(i int) { s.call(h, get(detail(i))) })
	m["storeserver.cold_fill_us_per_doc"] = metric{per / 1e3, "us"}
	hot := make([]*http.Request, 64)
	cond := make([]*http.Request, 64)
	for i := range hot {
		hot[i] = get(detail(i))
		s.call(h, hot[i])
		cond[i] = get(detail(i))
		cond[i].Header.Set("If-None-Match", s.h.Get("Etag"))
	}
	per, allocs := timed(ds.hot, func(i int) { s.call(h, hot[i%64]) })
	m["storeserver.hot_detail_ns"] = metric{per, "ns"}
	m["storeserver.hot_detail_allocs"] = metric{allocs, "1/op"}
	per, _ = timed(ds.hot, func(i int) { s.call(h, cond[i%64]) })
	m["storeserver.hot_304_ns"] = metric{per, "ns"}
	if s.code != http.StatusNotModified {
		r.out.CheckFailures = append(r.out.CheckFailures, "direct calls: conditional hot GET answered "+strconv.Itoa(s.code))
	}
	per, _ = timed(ds.pages, func(i int) {
		s.call(h, get(apiPrefix+"/apps?cursor="+storeserver.EncodeCursor(i*pageSize%ds.apps)))
	})
	m["storeserver.cursor_page_us"] = metric{per / 1e3, "us"}
	m["storeserver.advance_day_ms"] = metric{ms(medianOf(5, func() { node.AdvanceDay() })), "ms"} //nolint:errcheck // 4096-day period
	var prep, commit []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		node.PrepareDay() //nolint:errcheck // 4096-day period
		t1 := time.Now()
		node.CommitDay()
		prep, commit = append(prep, float64(t1.Sub(t0))), append(commit, float64(time.Since(t1)))
	}
	m["storeserver.prepare_day_ms"] = metric{median(prep) / 1e6, "ms"}
	m["storeserver.commit_day_us"] = metric{median(commit) / 1e3, "us"}

	// --- storeserver: a roll with comment writes waiting in the log, on
	// a node whose comment map is populated (absorbWrites clones it).
	wr := &rig{spec: rigSpec{Apps: ds.apps, CommentUsers: ds.commentUsers}}
	wnode, err := wr.newStore(storeConfig())
	if err != nil {
		fail(err)
		return
	}
	wh := wnode.Handler()
	var wg sync.WaitGroup
	const writers = 256 // enough that wal batches seal on size, not on the 1 ms timer
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := newSink()
			for i := g; i < ds.pendingWrites; i += writers {
				req := httptest.NewRequest(http.MethodPost, detail(i%ds.apps)+"/comments",
					strings.NewReader(`{"user":`+strconv.Itoa(i)+`,"rating":4}`))
				ws.call(wh, req)
			}
		}(g)
	}
	wg.Wait()
	if st := wnode.WALStats(); st.Accepted != int64(ds.pendingWrites) {
		r.out.CheckFailures = append(r.out.CheckFailures,
			"direct calls: "+strconv.FormatInt(st.Accepted, 10)+" of "+strconv.Itoa(ds.pendingWrites)+" comment writes accepted")
	}
	start := time.Now()
	wnode.AdvanceDay() //nolint:errcheck // 4096-day period
	m["storeserver.advance_day_writes_ms"] = metric{ms(time.Since(start)), "ms"}

	// --- fleet: gateway over four shards, no sockets.
	ring := fleet.NewRing(4, 0)
	var shards []fleet.ShardClient
	for k := 0; k < 4; k++ {
		mk, err := newMarket(ds.apps)
		if err != nil {
			fail(err)
			return
		}
		cfg := storeConfig()
		cfg.Node = "shard-" + strconv.Itoa(k)
		cfg.Partition = marketsim.NewPartitioner(ring.OwnsFunc(k))
		shards = append(shards, fleet.ShardClient{
			Name: cfg.Node, Base: "http://" + cfg.Node,
			HTTP: &http.Client{Transport: fleet.HandlerTransport{Handler: fleet.NewShardNode(storeserver.New(mk, cfg))}},
		})
	}
	gw := fleet.NewGateway(fleet.Config{Shards: shards, PageSize: pageSize})
	for i := 0; i < 64; i++ {
		s.call(gw, get(detail(i)))
	}
	per, allocs = timed(ds.gwDetails, func(i int) { s.call(gw, get(detail(i%64))) })
	m["fleet.gateway_detail_us"] = metric{per / 1e3, "us"}
	m["fleet.gateway_detail_allocs"] = metric{allocs, "1/op"}
	cursor := ""
	per, allocs = timed(ds.gwPages, func(int) {
		s.call(gw, get(apiPrefix+"/apps?cursor="+cursor))
		cursor, _ = scanNextCursor(s.body.Bytes()) //nolint:errcheck // a bad page ends the walk at ""
	})
	m["fleet.gateway_list_us"] = metric{per / 1e3, "us"}
	m["fleet.gateway_list_allocs"] = metric{allocs, "1/op"}
	owner := 0
	per, _ = timed(ds.ringLookups, func(i int) { owner += gw.Ring().Owner(int32(i % ds.apps)) })
	m["fleet.ring_owner_ns"] = metric{per, "ns"}
	_ = owner // keeps the lookups from being optimised away
	m["fleet.advance_fleet_ms"] = metric{ms(medianOf(5, func() {
		if _, err := fleet.AdvanceFleet(ctx, shards); err != nil {
			fail(err)
		}
	})), "ms"}

	// --- edgecache over that gateway, cache large enough to hold what is asked.
	edge, err := edgecache.New(edgecache.Config{
		Origin: "http://gateway", OriginTransport: fleet.HandlerTransport{Handler: gw},
	})
	if err != nil {
		fail(err)
		return
	}
	defer edge.Close()
	eh := edge.Handler()
	per, _ = timed(ds.edgeMisses, func(i int) { s.call(eh, get(detail(i))) })
	m["edgecache.miss_us"] = metric{per / 1e3, "us"}
	per, allocs = timed(ds.edgeHits, func(i int) { s.call(eh, get(detail(i%64))) })
	m["edgecache.hit_ns"] = metric{per, "ns"}
	m["edgecache.hit_allocs"] = metric{allocs, "1/op"}
	if v := s.h.Get("X-Edge-Cache"); v != "hit" {
		r.out.CheckFailures = append(r.out.CheckFailures, "direct calls: warm edge GET was a "+v)
	}

	// --- wal: ack latency with two appenders, then a rotation.
	log := wal.New(wal.Config{}, nil)
	lat := make([][]int64, numClients)
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ds.appendsEach; i++ {
				t0 := time.Now()
				log.Append(wal.Rec{Kind: wal.Download, App: int32(i), User: int32(g)}, "") //nolint:errcheck // far below MaxPending
				lat[g] = append(lat[g], int64(time.Since(t0)))
			}
		}(g)
	}
	wg.Wait()
	all := append(lat[0], lat[1:][0]...)
	slices.Sort(all)
	p50, _ := percentile(all, 50) //nolint:errcheck // non-empty
	m["wal.append_us_p50"] = metric{float64(p50) / 1e3, "us"}
	log = wal.New(wal.Config{}, nil)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < ds.rotateRecs; i += writers {
				log.Append(wal.Rec{Kind: wal.Comment, App: int32(i % ds.apps), User: int32(i), Rating: 3}, "") //nolint:errcheck // far below MaxPending
			}
		}(g)
	}
	wg.Wait()
	start = time.Now()
	d := log.Rotate()
	m["wal.rotate_ms"] = metric{ms(time.Since(start)), "ms"}
	if d.Records != ds.rotateRecs {
		r.out.CheckFailures = append(r.out.CheckFailures,
			"direct calls: rotation returned "+strconv.Itoa(d.Records)+" of "+strconv.Itoa(ds.rotateRecs)+" records")
	}
}
