package fleet

import (
	"fmt"
	"net"
	"net/http"
	"slices"

	"planetapps/internal/catalog"
	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/proxy"
	"planetapps/internal/storeserver"
)

// Stack is Figure 1's pipeline in one process, each tier on a loopback
// listener: an origin (an Inproc fleet or an external store), maybe an edge
// cache in front, and forward-proxy nodes for clients to route through.
// cmd/crawl, cmd/loadtest and the end-to-end pipeline test build theirs.
type Stack struct {
	URL        string                  // where clients are pointed: the edge, else the origin
	ProxyURLs  []string                // the forward-proxy nodes, in node order
	Inproc     *Inproc                 // nil when the origin is external
	Edge       *edgecache.Server       // nil without an edge
	ProxyChaos []*faultinject.Injector // per proxy node, when a node-scoped scenario is armed
	EdgeChaos  *faultinject.Injector   // the edge->origin leg's, when armed
	servers    []*http.Server
}

// CrawlOptions is the store cmd/crawl crawls for days days: 5,000
// commenting users, a period that outlasts the crawl (a short crawl keeps
// the default, which sets the daily download volume), storeserver's defaults.
func CrawlOptions(store string, scale float64, seed uint64, days int) Options {
	return Options{
		Store: store, Scale: scale, Seed: seed,
		Days:         max(days+1, marketsim.DefaultConfig(catalog.Profile{}).Days),
		CommentUsers: 5000,
		Server:       storeserver.DefaultConfig(),
	}
}

// StackOptions is what a Stack puts around its origin. Origin is an
// external store's base URL (empty: the fleet NewStack's Options describe,
// of one node at Shards 0). Edge fronts the origin with an edge cache
// (NewStack fills in its Origin); EdgeChaos arms the edge->origin leg.
// Proxies is the number of forward-proxy nodes.
type StackOptions struct {
	Origin    string
	Edge      *edgecache.Config
	EdgeChaos *faultinject.Scenario
	Proxies   int
}

// NewStack builds and serves the stack so describes around the fleet opts
// describes. opts.Chaos arms the shards or, if every rule of it names a
// node, the proxy nodes: without any it is refused, as it would inject
// nothing or hit shards by number.
func NewStack(opts Options, so StackOptions) (_ *Stack, err error) {
	sc := opts.Chaos
	nodeScoped := sc != nil && len(sc.Rules) > 0 &&
		!slices.ContainsFunc(sc.Rules, func(r faultinject.Rule) bool { return r.Node < 0 })
	switch {
	case nodeScoped && so.Proxies < 1:
		return nil, fmt.Errorf("fleet: chaos scenario %q names proxy nodes, and the stack has none", sc.Name)
	case so.EdgeChaos != nil && so.Edge == nil:
		return nil, fmt.Errorf("fleet: chaos scenario %q is for the edge->origin leg, and the stack has no edge", so.EdgeChaos.Name)
	case so.Origin != "" && opts.Shards > 0:
		return nil, fmt.Errorf("fleet: Shards = %d needs the in-process store, not the external origin %s", opts.Shards, so.Origin)
	case so.Origin != "" && sc != nil && !nodeScoped:
		return nil, fmt.Errorf("fleet: chaos scenario %q needs the in-process store, not the external origin %s", sc.Name, so.Origin)
	}
	st := &Stack{URL: so.Origin}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	if st.URL == "" {
		opts.Shards = max(opts.Shards, 1)
		if nodeScoped {
			opts.Chaos = nil // sc arms the proxy nodes below
		}
		if st.Inproc, err = NewInproc(opts); err != nil {
			return nil, err
		}
		if st.URL, err = st.serve(st.Inproc.Front()); err != nil {
			return nil, err
		}
	}
	if so.Edge != nil {
		cfg := *so.Edge
		cfg.Origin = st.URL
		if so.EdgeChaos != nil {
			st.EdgeChaos = faultinject.New(*so.EdgeChaos, opts.ChaosSeed, nil)
			cfg.OriginTransport = st.EdgeChaos.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 16})
			// The default budget of 5 serves stale copies where a few more
			// attempts would reach the origin.
			cfg.OriginRetries = max(cfg.OriginRetries, 8)
		}
		if st.Edge, err = edgecache.New(cfg); err != nil {
			return nil, err
		}
		if st.URL, err = st.serve(st.Edge.Handler()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < so.Proxies; i++ {
		h := proxy.New(fmt.Sprintf("planetlab-%02d", i)).Handler()
		if nodeScoped {
			inj := faultinject.NewForNode(*sc, opts.ChaosSeed, i, nil)
			st.ProxyChaos = append(st.ProxyChaos, inj)
			h = inj.Wrap(h)
		}
		u, err := st.serve(h)
		if err != nil {
			return nil, err
		}
		st.ProxyURLs = append(st.ProxyURLs, u)
	}
	return st, nil
}

// serve puts h behind a loopback listener and returns its base URL.
func (st *Stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // http.ErrServerClosed once Close runs
	return "http://" + ln.Addr().String(), nil
}

// AdvanceDay rolls the in-process fleet one day (the two-phase epoch swap).
// An external origin rolls on its own schedule: there it does nothing.
func (st *Stack) AdvanceDay() error {
	if st.Inproc == nil {
		return nil
	}
	return st.Inproc.AdvanceDay()
}

// Close stops the stack's listeners and closes their connections.
func (st *Stack) Close() {
	for _, srv := range st.servers {
		srv.Close()
	}
}
