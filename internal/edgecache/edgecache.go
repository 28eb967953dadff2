// Package edgecache is a CDN-POP-style caching proxy that sits between
// clients (crawlers, the load generator, real browsers) and a store fleet
// origin, serving the /api/v1 surface from a byte-budgeted in-memory cache.
// It makes the paper's §7 implication study live: the same replacement
// policies internal/cache evaluates offline (LRU, 2Q, CategoryAware) here
// govern a real HTTP cache under real traffic. The edge fetches only what
// a client asked for: the paper's category-top prefetch ("the most popular
// apps from this category ... can be prefetched to a local place") is a
// device-side cache's strategy, priced offline by internal/prefetch; run
// live in a shared edge it lowered origin offload (EXPERIMENTS.md "PF").
//
// The proxy is HTTP-correct under day-rolls:
//
//   - Freshness follows the origin's Cache-Control: max-age and Age
//     headers (remaining = max-age - Age), so an edge entry expires
//     exactly when the next day-roll is due. Entries are served with a
//     growing Age and the origin's Cache-Control forwarded.
//   - Expired entries revalidate with If-None-Match against the origin's
//     content-version ETags; an unchanged document costs a 304, not a
//     re-encode, and keeps serving byte-identical content.
//   - When the origin fails (5xx storms, resets — the faultinject
//     scenarios), the edge serves the stale copy rather than an error:
//     stale-while-unreachable, bounded by the resilient client's retry
//     budget.
//   - Concurrent misses for one key collapse into a single origin fetch
//     (single-flight); a popular page hits the origin once no matter how
//     many clients stampede it.
//   - Client If-None-Match is answered by the edge itself: a conditional
//     crawler gets its 304s from the edge without origin traffic.
//
// Non-JSON payloads (APK streams), error responses and every method but
// GET and HEAD (writes) pass through uncached — the cache holds only
// origin-ETagged JSON documents, which are the payloads whose integrity
// the edge can verify before storing.
package edgecache

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/cache"
	"planetapps/internal/gzipx"
	"planetapps/internal/metrics"
	"planetapps/internal/resilient"
)

// Config controls an edge Server.
type Config struct {
	// Origin is the base URL of the store fleet origin (no trailing
	// slash), e.g. "http://127.0.0.1:8080".
	Origin string
	// CapacityBytes is the cache budget in body bytes (default 64 MiB).
	CapacityBytes int64
	// Policy selects the replacement policy: "lru" (default), "2q", or
	// "category" (the paper-motivated category-aware partitioned LFU).
	Policy string
	// OriginTransport performs the physical origin exchanges, reads and
	// relayed writes alike; a faultinject RoundTripper plugs in here to
	// hit the edge->origin leg with chaos (default: a fresh
	// http.Transport).
	OriginTransport http.RoundTripper
	// OriginRetries is the resilient client's retry budget per origin
	// fetch (default 5). When the budget is exhausted the edge serves
	// stale.
	OriginRetries int
	// HedgeAfter launches a hedged origin attempt after this long
	// (0 = off).
	HedgeAfter time.Duration
	// Seed drives the resilient client's backoff jitter.
	Seed uint64
}

// reqKey names one cacheable representation: the request URI and the
// encoding variant ("" = identity, "gzip") negotiated for it.
type reqKey struct{ uri, variant string }

// entry is one cached origin document. Fields are written only under
// Server.mu; the body slice is immutable once stored, so a value copy
// taken under the lock can be served after releasing it.
type entry struct {
	// key is where the entry is stored: the requested variant when the
	// origin's response varies on Accept-Encoding, the bare URI otherwise.
	key    reqKey
	body   []byte // stored as received: compressed bytes stay compressed
	etag   string
	ctype  string
	cenc   string // origin Content-Encoding ("" or "gzip"), forwarded as-is
	vary   string // origin Vary, forwarded downstream
	varyAE bool   // vary names Accept-Encoding: other variants need their own entry
	day    string // origin X-Store-Day
	apiVer string // origin X-API-Version
	cc     string // origin Cache-Control, forwarded downstream

	// originAge is the Age the origin reported when this copy was
	// (re)validated; the client-facing Age is originAge plus residency.
	originAge int64
	storedAt  time.Time
	expires   time.Time

	// cat is the dense category id the category-aware policy partitions
	// on (0 under the other policies, which never read it).
	cat int32
}

// Server is the edge cache. Create with New; the HTTP surface comes from
// Handler.
type Server struct {
	cfg    Config
	client *resilient.Client
	reg    *metrics.Registry

	// mu guards the entry map, the policy, and the single-flight table.
	// The replacement policies are single-goroutine structures; every
	// policy call happens under mu. entries and pol hold exactly the same
	// keys, and nothing else here is keyed by request: what the edge knows
	// about a URI lives on its resident entry and is evicted with it.
	mu      sync.Mutex
	entries map[reqKey]*entry
	pol     cache.Policy[reqKey]
	cats    map[string]int32 // category name -> dense id; filled under "category" only
	flights map[reqKey]*flight

	st instruments
}

// New validates cfg and builds the edge server.
func New(cfg Config) (*Server, error) {
	if cfg.Origin == "" {
		return nil, errors.New("edgecache: Config.Origin is required")
	}
	cfg.Origin = strings.TrimRight(cfg.Origin, "/")
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 64 << 20
	}
	if cfg.OriginRetries <= 0 {
		cfg.OriginRetries = 5
	}
	if cfg.OriginTransport == nil {
		cfg.OriginTransport = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	s := &Server{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		entries: map[reqKey]*entry{},
		cats:    map[string]int32{},
		flights: map[reqKey]*flight{},
	}
	capacity := int(cfg.CapacityBytes)
	switch cfg.Policy {
	case "", "lru":
		s.pol = cache.NewLRU[reqKey](capacity)
	case "2q":
		s.pol = cache.NewTwoQ[reqKey](capacity)
	case "category":
		s.pol = cache.NewCategoryAware(cache.CategoryAwareConfig[reqKey]{
			Capacity: capacity,
			// Called from AccessCost, always under s.mu, for a key whose
			// entry fetch has just put in place.
			CategoryOf: func(k reqKey) int32 { return s.entries[k].cat },
			// The default rebalance cadence is Capacity accesses — sane
			// for entry-count simulators, never for a byte budget; track
			// traffic shifts every few thousand requests instead.
			RebalanceEvery: 2048,
		})
	default:
		return nil, fmt.Errorf("edgecache: unknown policy %q (have lru, 2q, category)", cfg.Policy)
	}
	s.initInstruments()
	s.pol.OnEvict(func(k reqKey) {
		delete(s.entries, k)
		s.st.evictions.Inc()
	})
	s.client = resilient.New(resilient.Config{
		Transport:  cfg.OriginTransport,
		MaxRetries: cfg.OriginRetries,
		HedgeAfter: cfg.HedgeAfter,
		Seed:       cfg.Seed,
		Metrics:    s.reg,
	})
	return s, nil
}

// Close does nothing: the edge runs no background work of its own. It
// stays only because cmd/bench, a frozen module, still calls it; ROADMAP
// item 2(d) removes it together with those calls.
func (s *Server) Close() {}

// Handler returns the edge's HTTP surface: every path proxies to the
// origin through the cache, except /metrics, which serves the edge's own
// registry (the origin's /metrics is its own to expose). Dispatch is an
// exact match rather than an http.ServeMux because the mux answers "//"
// and ".." paths with a 301 of its own, and a malformed path must get
// the origin's answer, as it does from a store or a gateway.
func (s *Server) Handler() http.Handler {
	inner := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" || (r.Method != http.MethodGet && r.Method != http.MethodHead) {
			s.proxy(w, r)
			return
		}
		// The residency gauges are refreshed by Stats(); without this a
		// scrape that never calls Stats() would report 0 entries forever.
		s.Stats()
		inner.ServeHTTP(w, r)
	})
}

// variantOf maps a client request to the encoding variant the edge will
// serve and request upstream: "gzip" when the client consents to gzip,
// "" (identity) otherwise.
func variantOf(r *http.Request) string {
	if gzipx.AcceptsGzip(r.Header.Get("Accept-Encoding")) {
		return "gzip"
	}
	return ""
}

// lookupLocked resolves a request to its resident entry: the variant's own,
// else the bare URI's when the origin does not vary on Accept-Encoding — a
// non-varying URI keeps one shared entry no matter what clients advertise.
// Caller holds s.mu.
func (s *Server) lookupLocked(k reqKey) *entry {
	if e := s.entries[k]; e != nil || k.variant == "" {
		return e
	}
	if e := s.entries[reqKey{uri: k.uri}]; e != nil && !e.varyAE {
		return e
	}
	return nil
}

// proxy serves one client request through the cache.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request) {
	s.st.requests.Inc()
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.relay(w, r)
		return
	}
	key := reqKey{r.URL.RequestURI(), variantOf(r)}
	now := time.Now()

	s.mu.Lock()
	if e := s.lookupLocked(key); e != nil && now.Before(e.expires) {
		// Fresh hit: touch the policy (at the resident cost, so nothing is
		// evicted) and serve without origin I/O.
		s.pol.AccessCost(e.key, int64(len(e.body)))
		snap := *e
		s.mu.Unlock()
		s.st.hits.Inc()
		s.serveEntry(w, r, &snap, now, "hit")
		return
	}
	s.mu.Unlock()

	out := s.getOrFetch(r.Context(), key, apiwire.ForwardedFor(r))
	switch out.kind {
	case kindMiss, kindReval, kindStale:
		s.serveEntry(w, r, out.entry, time.Now(), out.kind.label())
	case kindPass:
		s.servePass(w, r, out)
	default: // kindError
		s.serveError(w, out.err)
	}
}

// serveError answers a request the origin could not be reached for.
func (s *Server) serveError(w http.ResponseWriter, err error) {
	s.st.errors.Inc()
	w.Header().Set("X-Edge-Cache", "error")
	http.Error(w, "edge: origin unreachable: "+err.Error(), http.StatusBadGateway)
}

// relayHeaders are the request headers a relayed request carries to the
// origin besides X-Forwarded-For: a write's body type and its idempotency
// key, so a replay through the edge is deduped as at the origin.
var relayHeaders = []string{"Content-Type", "Idempotency-Key"}

// relay forwards a request with any method but GET and HEAD — a write, or
// a wrong method the origin answers with its 405 and Allow — to the
// origin in one attempt, as a gateway forwards it to a shard, and passes
// the answer back uncached.
func (s *Server) relay(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, s.cfg.Origin+r.URL.RequestURI(), r.Body)
	if err != nil {
		s.serveError(w, err)
		return
	}
	req.ContentLength = r.ContentLength
	for _, k := range relayHeaders {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	req.Header.Set("X-Forwarded-For", apiwire.ForwardedFor(r))
	s.st.originReqs.Inc()
	resp, err := s.cfg.OriginTransport.RoundTrip(req)
	if err != nil {
		s.serveError(w, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.serveError(w, err)
		return
	}
	s.servePass(w, r, &fetchOut{kind: kindPass, status: resp.StatusCode, header: resp.Header, body: body})
}

// serveEntry writes one cached representation, answering the client's own
// If-None-Match locally: a conditional client revalidates against the edge
// without any origin traffic.
func (s *Server) serveEntry(w http.ResponseWriter, r *http.Request, e *entry, now time.Time, verdict string) {
	h := w.Header()
	h.Set("ETag", e.etag)
	if e.vary != "" {
		h.Set("Vary", e.vary)
	}
	if e.day != "" {
		h.Set("X-Store-Day", e.day)
	}
	if e.apiVer != "" {
		h.Set("X-API-Version", e.apiVer)
	}
	if e.cc != "" {
		h.Set("Cache-Control", e.cc)
	}
	age := e.originAge
	if d := now.Sub(e.storedAt); d > 0 {
		age += int64(d / time.Second)
	}
	h.Set("Age", strconv.FormatInt(age, 10))
	h.Set("X-Edge-Cache", verdict)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), e.etag) {
		s.st.client304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if e.cenc != "" {
		h.Set("Content-Encoding", e.cenc)
	}
	h.Set("Content-Type", e.ctype)
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(e.body) //nolint:errcheck // client gone; nothing useful to do
	s.st.servedBytes.Add(int64(len(e.body)))
}

// passHeaders are the origin headers a passthrough response relays.
var passHeaders = []string{
	"ETag", "Content-Type", "Content-Encoding", "Vary", "X-Store-Day",
	"X-API-Version", "Cache-Control", "Age", "Retry-After", "Allow",
}

// servePass relays an origin response the edge does not cache (APK
// streams, 4xx answers, relayed writes). A conditional client whose ETag
// matches a 200 still gets its 304 — the version-aware crawler must see
// the same not-modified behavior through the edge as against the origin.
func (s *Server) servePass(w http.ResponseWriter, r *http.Request, out *fetchOut) {
	s.st.passthrough.Inc()
	h := w.Header()
	for _, k := range passHeaders {
		if v := out.header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Edge-Cache", "pass")
	if out.status == http.StatusOK {
		if etag := out.header.Get("ETag"); etag != "" && apiwire.ETagMatch(r.Header.Get("If-None-Match"), etag) {
			s.st.client304.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(out.body)))
	w.WriteHeader(out.status)
	if r.Method == http.MethodHead {
		return
	}
	w.Write(out.body) //nolint:errcheck // client gone; nothing useful to do
	s.st.servedBytes.Add(int64(len(out.body)))
}

// Registry exposes the edge metrics registry (also served at /metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }
