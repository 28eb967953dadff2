package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/edgecache"
	"planetapps/internal/fleet"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

const (
	marketSeed = 1
	pageSize   = 100
	apiPrefix  = "/api/v1"
)

// rigSpec says which tiers a workload's rig holds. Everything else about
// a rig is fixed (see benchProfile and buildRig).
type rigSpec struct {
	Apps         int  `json:"apps"`
	Shards       int  `json:"shards"`        // 0 = no fleet, no gateway
	Nodes        int  `json:"nodes"`         // unsharded stores: the crawl's sites, or the fleet's one byte-for-byte reference
	Edge         bool `json:"edge"`          // an LRU edge in front of the gateway
	CommentUsers int  `json:"comment_users"` // 0 = no comment streams
}

// benchProfile is a free+paid catalog whose simulated population is
// pinned (as cmd/gcbench and bench_test.go's dayRollProfile pin it)
// instead of scaled with the catalog: with Days = 4096 a day changes
// about 2 % of download counts, 0.3 % of rows and adds 0.05 % new apps —
// the small deltas the paper's daily crawls saw — and a market builds in
// a fraction of a second, where the stock profiles spend tens of seconds
// simulating users the benchmark never looks at.
func benchProfile(apps int) catalog.Profile {
	return catalog.Profile{
		Name: "bench", Apps: apps, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: float64(apps) / 2000,
		Users: apps, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	}
}

func newMarket(apps int) (*marketsim.Market, error) {
	cfg := marketsim.DefaultConfig(benchProfile(apps))
	cfg.Days = 4096
	cfg.WarmupDays = 0
	cfg.DisableSeries = true
	return marketsim.New(cfg, marketSeed)
}

// storeConfig is every store's configuration: rate limiter off, no
// prewarm, no chaos, and a freshness lifetime no run outlives, so an
// edge entry never expires mid-window.
func storeConfig() storeserver.Config {
	return storeserver.Config{PageSize: pageSize, FreshFor: time.Hour}
}

// rig is the deployed topology in one process: every tier a real
// http.Server on a loopback port, every hop a keep-alive http.Transport,
// which is the shape appstored, gatewayd and edgecached run in.
type rig struct {
	spec rigSpec
	tr   *tracer

	nodes   []*storeserver.Server // spec.Nodes unsharded stores
	shards  []*storeserver.Server
	gateway *fleet.Gateway
	edge    *edgecache.Server

	nodeURLs            []string
	gatewayURL, edgeURL string

	// admin reaches the shards' control plane on connections of its own,
	// so a day-roll never queues behind (or is traced as) client traffic.
	admin []fleet.ShardClient

	// listCalls counts gateway→shard round trips for the listing route.
	listCalls atomic.Int64

	comments   []comments.Comment
	servers    []*http.Server
	transports []*http.Transport
	wg         sync.WaitGroup
}

// serve starts h on a loopback port and returns its base URL.
func (r *rig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	r.servers = append(r.servers, srv)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// transport returns a keep-alive transport that leaves response bodies
// as the origin encoded them.
func (r *rig) transport(conns int) *http.Transport {
	t := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	r.transports = append(r.transports, t)
	return t
}

// newStore builds one store over its own copy of the market and, when
// the spec asks for them, installs the comment streams: every store
// holds the full generated population (a pure function of the shared
// catalog and seed) and serves the apps it owns out of it.
func (r *rig) newStore(cfg storeserver.Config) (*storeserver.Server, error) {
	m, err := newMarket(r.spec.Apps)
	if err != nil {
		return nil, err
	}
	srv := storeserver.New(m, cfg)
	if r.spec.CommentUsers > 0 {
		if r.comments == nil {
			r.comments, err = comments.Generate(m.Catalog(), comments.DefaultGenConfig(r.spec.CommentUsers), marketSeed+1)
			if err != nil {
				return nil, err
			}
		}
		srv.SetComments(r.comments)
	}
	return srv, nil
}

// buildRig assembles spec from the tiers' exported constructors. Every
// store runs the same market (same profile, same seed); a shard serves
// the slice of it the ring assigns.
func buildRig(spec rigSpec) (*rig, error) {
	r := &rig{spec: spec, tr: newTracer()}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	for i := 0; i < spec.Nodes; i++ {
		srv, err := r.newStore(storeConfig())
		if err != nil {
			return nil, err
		}
		base, err := r.serve(r.tr.handler(tierStore, -1, srv.Handler()))
		if err != nil {
			return nil, err
		}
		r.nodes, r.nodeURLs = append(r.nodes, srv), append(r.nodeURLs, base)
	}

	if spec.Shards > 0 {
		ring := fleet.NewRing(spec.Shards, 0)
		var data []fleet.ShardClient
		for k := 0; k < spec.Shards; k++ {
			cfg := storeConfig()
			cfg.Node = "shard-" + strconv.Itoa(k)
			cfg.Partition = marketsim.NewPartitioner(ring.OwnsFunc(k))
			srv, err := r.newStore(cfg)
			if err != nil {
				return nil, err
			}
			r.shards = append(r.shards, srv)
			base, err := r.serve(r.tr.handler(tierStore, k, fleet.NewShardNode(srv)))
			if err != nil {
				return nil, err
			}
			data = append(data, fleet.ShardClient{
				Name: cfg.Node, Base: base, Reg: srv.Registry(),
				HTTP: &http.Client{Transport: &tracedTransport{
					t: r.tr, tier: tierGatewayShard, shard: k,
					next: r.transport(numClients), calls: &r.listCalls,
				}},
			})
			r.admin = append(r.admin, fleet.ShardClient{
				Name: cfg.Node, Base: base,
				HTTP: &http.Client{Transport: r.transport(1)},
			})
		}
		r.gateway = fleet.NewGateway(fleet.Config{Shards: data, PageSize: pageSize})
		var err error
		if r.gatewayURL, err = r.serve(r.tr.handler(tierGateway, -1, r.gateway)); err != nil {
			return nil, err
		}
	}

	if spec.Edge {
		budget, err := r.edgeBudget()
		if err != nil {
			return nil, err
		}
		r.edge, err = edgecache.New(edgecache.Config{
			Origin:        r.gatewayURL,
			CapacityBytes: budget,
			Policy:        "lru",
			OriginTransport: &tracedTransport{
				t: r.tr, tier: tierEdgeOrigin, shard: -1, next: r.transport(numClients),
			},
		})
		if err != nil {
			return nil, err
		}
		if r.edgeURL, err = r.serve(r.tr.handler(tierEdge, -1, r.edge.Handler())); err != nil {
			return nil, err
		}
	}
	ok = true
	return r, nil
}

// edgeBudget sizes the edge at 5 % of the catalog's detail bytes, as
// clients fetch them (gzip), estimated from 256 evenly spaced apps of
// the reference node: the working set is then some twenty times the
// cache and the edge must evict.
func (r *rig) edgeBudget() (int64, error) {
	if len(r.nodes) == 0 {
		return 0, fmt.Errorf("bench: an edge rig needs the reference node to size its cache")
	}
	h := r.nodes[0].Handler()
	const samples = 256
	var total int64
	for i := 0; i < samples; i++ {
		id := i * r.spec.Apps / samples
		req := httptest.NewRequest(http.MethodGet, apiPrefix+"/apps/"+strconv.Itoa(id), nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("bench: sizing the edge: app %d answered %d", id, rec.Code)
		}
		total += int64(rec.Body.Len())
	}
	return total * int64(r.spec.Apps) / samples / 20, nil
}

// nodeApps asks node i's /stats how many apps it serves.
func (r *rig) nodeApps(i int) (int, error) {
	rec := httptest.NewRecorder()
	r.nodes[i].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, apiPrefix+"/stats", nil))
	var st storeserver.StatsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("bench: /stats: %w", err)
	}
	return st.Apps, nil
}

// stores returns the stores that serve client traffic: the shards of a
// fleet, else the nodes. (A fleet's node is only the reference.)
func (r *rig) stores() []*storeserver.Server {
	if len(r.shards) > 0 {
		return r.shards
	}
	return r.nodes
}

// close stops every server the rig started and waits for them.
func (r *rig) close() {
	for _, s := range r.servers {
		s.Close() //nolint:errcheck // listener teardown; nothing to do on error
	}
	r.wg.Wait()
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
	if r.edge != nil {
		r.edge.Close()
	}
}
