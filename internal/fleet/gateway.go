package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/metrics"
	"planetapps/internal/storeserver"
)

// Config configures a Gateway.
type Config struct {
	// Shards is the fleet, in ring order: Shards[i] must be the node
	// serving ring shard i.
	Shards []ShardClient
	// PageSize is the listing page size (<= 0 uses
	// storeserver.DefaultPageSize), which must match the shards'
	// storeserver.Config.PageSize for assembled pages to be byte-compatible
	// with a single node's. (Shards with a smaller page size still merge
	// correctly, at the cost of a top-up fetch whenever they clamp.)
	PageSize int
	// Vnodes is the consistent-hash ring's virtual-node count per shard
	// (<= 0 uses DefaultVnodes). Must match the value the shards'
	// partitioners were built with.
	Vnodes int
}

// maxEpochRetries bounds how many times a scatter request is retried when
// the shards' X-Store-Day headers disagree (a day-roll commit fanning out
// mid-request) before giving up with 503 epoch_skew. Each retry waits
// first, epochBackoff doubling from one retry to the next (700 µs in all).
const (
	maxEpochRetries = 3
	epochBackoff    = 100 * time.Microsecond
)

// Gateway is the fleet's front door: one HTTP surface, N shards behind
// it. Single-app routes are proxied to their ring owner untouched; the
// listing is stitched across shards by a deterministic k-way merge on
// global app ID (list.go); /stats aggregates (stats.go); /metrics merges
// every node's registry (exposition.go). Every scatter response is
// checked for epoch coherence — the gateway never returns data mixing two
// simulated days, even while a fleet day-roll's commits are fanning out.
type Gateway struct {
	cfg  Config
	ring *Ring
	reg  *metrics.Registry

	// rollMu serializes /admin/roll coordinations.
	rollMu sync.Mutex

	reqs         map[string]*metrics.Counter
	proxied      *metrics.Counter
	mergedPages  *metrics.Counter
	epochRetries *metrics.Counter
	epochSkews   *metrics.Counter
	shardErrors  *metrics.Counter
	topUps       *metrics.Counter
	mergeSeconds *metrics.Histogram
}

// NewGateway builds a gateway over cfg.Shards.
func NewGateway(cfg Config) *Gateway {
	if cfg.PageSize <= 0 {
		cfg.PageSize = storeserver.DefaultPageSize
	}
	g := &Gateway{
		cfg:  cfg,
		ring: NewRing(len(cfg.Shards), cfg.Vnodes),
		reg:  metrics.NewRegistry(),
	}
	g.reg.SetNode("gateway")
	g.reqs = map[string]*metrics.Counter{}
	for _, route := range []string{"stats", "list", "proxy", "metrics", "admin", "other"} {
		g.reqs[route] = g.reg.Counter(`gateway_requests_total{route="` + route + `"}`)
	}
	g.proxied = g.reg.Counter("gateway_proxied_total")
	g.mergedPages = g.reg.Counter("gateway_merged_pages_total")
	g.epochRetries = g.reg.Counter("gateway_epoch_retries_total")
	g.epochSkews = g.reg.Counter("gateway_epoch_skew_total")
	g.shardErrors = g.reg.Counter("gateway_shard_errors_total")
	g.topUps = g.reg.Counter("gateway_topup_fetches_total")
	g.mergeSeconds = g.reg.Histogram("gateway_merge_seconds")
	return g
}

// Registry returns the gateway's own metrics registry.
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

// Stats is a point-in-time snapshot of the gateway's own counters, for
// reports that want the numbers without scraping /metrics.
type Stats struct {
	Proxied      int64 `json:"proxied"`
	MergedPages  int64 `json:"merged_pages"`
	EpochRetries int64 `json:"epoch_retries"`
	EpochSkews   int64 `json:"epoch_skews"`
	ShardErrors  int64 `json:"shard_errors"`
	// TopUps counts second-round shard fetches: listing slices a merge
	// had to extend because a shard delivered less than the page needed.
	TopUps int64 `json:"topup_fetches"`
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Proxied:      g.proxied.Value(),
		MergedPages:  g.mergedPages.Value(),
		EpochRetries: g.epochRetries.Value(),
		EpochSkews:   g.epochSkews.Value(),
		ShardErrors:  g.shardErrors.Value(),
		TopUps:       g.topUps.Value(),
	}
}

// Ring returns the gateway's routing ring (for tests and partition setup).
func (g *Gateway) Ring() *Ring { return g.ring }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/metrics":
		g.reqs["metrics"].Inc()
		g.serveMetrics(w, r)
		return
	case r.URL.Path == "/admin/roll":
		g.reqs["admin"].Inc()
		g.serveRoll(w, r)
		return
	case r.URL.Path == "/admin/day":
		g.reqs["admin"].Inc()
		g.serveDay(w, r)
		return
	}
	// Classification, method check and ID validation are the store's own
	// (apiwire), in the store's order, so a malformed request gets the
	// same answer here as from a single node.
	kind, id, idOK := apiwire.ParsePath(r.URL.Path)
	if kind == apiwire.None {
		g.reqs["other"].Inc()
		http.NotFound(w, r)
		return
	}
	if _, ok := apiwire.CheckMethod(kind, r.Method); !ok {
		apiwire.WriteMethodNotAllowed(w, kind, r.Method)
		return
	}
	switch kind {
	case apiwire.Stats:
		g.reqs["stats"].Inc()
		g.serveStats(w, r)
	case apiwire.List:
		g.reqs["list"].Inc()
		g.serveList(w, r)
	default: // the single-app routes, reads and writes alike
		g.reqs["proxy"].Inc()
		if !idOK {
			apiwire.BadAppID.Write(w)
			return
		}
		g.serveApp(w, r, id)
	}
}

// --- single-app proxy ------------------------------------------------------

// proxyHopHeaders are the request headers forwarded to the owner shard:
// the validators and negotiation the store honours, the client identity
// chain the shard's rate limiter buckets by, and the write path's
// idempotency and body-type markers (absent on reads, so forwarding the
// list costs reads nothing).
var proxyHopHeaders = []string{"If-None-Match", "Accept-Encoding", "User-Agent", "Idempotency-Key", "Content-Type"}

// serveApp forwards a single-app route to the shard owning the app ID.
// The response — status, headers, body, byte for byte — is the shard's:
// detail, comments, and APK documents through the gateway are exactly
// what a single node serves, gzip negotiation and 304s included.
func (g *Gateway) serveApp(w http.ResponseWriter, r *http.Request, id int32) {
	shard := &g.cfg.Shards[g.ring.Owner(id)]
	hdr := make(http.Header, 4)
	for _, k := range proxyHopHeaders {
		if v := r.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	hdr.Set("X-Forwarded-For", apiwire.ForwardedFor(r))
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	var body io.Reader
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		body = r.Body
	}
	resp, err := shard.do(r.Context(), r.Method, pathAndQuery, hdr, body)
	if err != nil {
		g.shardErrors.Inc()
		shardUnreachable(shard).Write(w)
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.CopyBuffer(w, resp.Body, nil) //nolint:errcheck // client gone; nothing useful to do
	g.proxied.Inc()
}

// --- scatter ---------------------------------------------------------------

// head is what a gateway-assembled response carries over from the shard
// responses it is built from: the epoch they were served in (X-Store-Day),
// their validator and their freshness headers. An assembled response
// keeps the shards' day and freshness under a validator of its own.
type head struct {
	day, etag, cc, age string
}

// Caps on what one shard response may make the gateway buffer. A listing
// slice of PageSize rows is tens of KiB, a stats document tens of bytes
// and a metrics page tens of KiB; anything past these is a broken or
// hostile shard.
const (
	maxListBody    = 8 << 20
	maxStatsBody   = 4 << 10
	maxMetricsBody = 4 << 20
)

var errBodyTooLarge = errors.New("response body exceeds the gateway's cap")

// listBufs recycles the buffers shard bodies are read into and the merged
// listing page is written into. A buffer goes back only when nothing
// aliases it any more: a listing slice's after the merged page has been
// written (or abandoned), never when it is replaced by a top-up, since
// rows already merged still point into it.
var listBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getListBuf() *bytes.Buffer {
	b := listBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putListBufs(bufs []*bytes.Buffer) {
	for _, b := range bufs {
		listBufs.Put(b)
	}
}

func shardUnreachable(c *ShardClient) *apiwire.Error {
	return &apiwire.Error{Status: http.StatusBadGateway, Code: "shard_unreachable",
		Message: "shard " + c.Name + " unreachable"}
}

func badShardResponse(c *ShardClient, why string) *apiwire.Error {
	return &apiwire.Error{Status: http.StatusBadGateway, Code: "shard_bad_response",
		Message: "shard " + c.Name + ": " + why}
}

// fetchShard is the one way a scatter reads a shard: GET pathAndQuery
// from shard i and read the 200 body — at most max bytes, sized from
// Content-Length when the shard sent one — into a buffer from listBufs,
// which the caller puts back. Any other outcome is the request's error:
// an unreachable shard 502 shard_unreachable, a non-200 answer 503
// shard_unavailable, a body past the cap or cut short 502
// shard_bad_response.
func (g *Gateway) fetchShard(ctx context.Context, i int, pathAndQuery string, max int64) (*bytes.Buffer, head, *apiwire.Error) {
	c := &g.cfg.Shards[i]
	resp, err := c.get(ctx, pathAndQuery, nil)
	if err != nil {
		return nil, head{}, shardUnreachable(c)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, head{}, &apiwire.Error{Status: http.StatusServiceUnavailable, Code: "shard_unavailable",
			Message: "shard " + c.Name + " answered " + strconv.Itoa(resp.StatusCode)}
	}
	if resp.ContentLength > max {
		return nil, head{}, badShardResponse(c, errBodyTooLarge.Error())
	}
	buf := getListBuf()
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err = buf.ReadFrom(io.LimitReader(resp.Body, max+1)); err == nil && int64(buf.Len()) > max {
		err = errBodyTooLarge
	}
	if err != nil {
		listBufs.Put(buf)
		return nil, head{}, badShardResponse(c, err.Error())
	}
	return buf, head{day: resp.Header.Get("X-Store-Day"), etag: resp.Header.Get("Etag"),
		cc: resp.Header.Get("Cache-Control"), age: resp.Header.Get("Age")}, nil
}

// stamp heads a gateway-assembled response the way the shards headed the
// responses it was built from — API version, epoch, freshness — under the
// validator in hd, and answers a matching If-None-Match with 304. It
// reports whether that 304 completed the response.
func stamp(w http.ResponseWriter, r *http.Request, hd head) bool {
	h := w.Header()
	h.Set("X-API-Version", apiwire.Version)
	if hd.cc != "" {
		h.Set("Cache-Control", hd.cc)
	}
	if hd.age != "" {
		h.Set("Age", hd.age)
	}
	h.Set("Etag", hd.etag)
	h.Set("X-Store-Day", hd.day)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), hd.etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// writeJSON writes a stamped response's JSON body.
func writeJSON(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) //nolint:errcheck // client gone; nothing useful to do
}

// retryEpoch runs one scatter attempt up to maxEpochRetries+1 times. An
// attempt returns its observed day ("" = shards disagreed → retry) or a
// hard error. Exhausting retries yields 503 epoch_skew — the fleet was
// mid-commit the whole time, which a two-phase roll makes vanishingly
// brief, so a client retry will land in the new epoch.
//
// The wait is what lets the commit finish. Its fan-out's goroutines can
// sit in a run queue behind scatter goroutines that requests keep waking
// into the processors' next-to-run slots, which inherit the waker's time
// slice (up to 10 ms): a retry fired at once re-reads a fleet whose commit
// has not run, while a request that sleeps hands its processor to the
// queue.
func (g *Gateway) retryEpoch(attempt func() (string, *apiwire.Error)) *apiwire.Error {
	for try := 0; ; try++ {
		day, err := attempt()
		if err != nil {
			g.shardErrors.Inc()
			return err
		}
		if day != "" {
			return nil
		}
		if try >= maxEpochRetries {
			g.epochSkews.Inc()
			return &apiwire.Error{Status: http.StatusServiceUnavailable, Code: "epoch_skew",
				Message: "fleet day-roll in progress; retry"}
		}
		g.epochRetries.Inc()
		time.Sleep(epochBackoff << try)
	}
}

// scatter runs fn(i) for every shard concurrently and returns the first
// error by shard order.
func (g *Gateway) scatter(ctx context.Context, fn func(ctx context.Context, i int) *apiwire.Error) *apiwire.Error {
	errs := make([]*apiwire.Error, len(g.cfg.Shards))
	var wg sync.WaitGroup
	for i := range g.cfg.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// --- admin -----------------------------------------------------------------

func (g *Gateway) serveRoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAdmin(w, http.StatusMethodNotAllowed, adminDay{Error: "method_not_allowed"})
		return
	}
	g.rollMu.Lock()
	defer g.rollMu.Unlock()
	day, err := AdvanceFleet(r.Context(), g.cfg.Shards)
	if err != nil {
		writeAdmin(w, http.StatusBadGateway, adminDay{Error: err.Error()})
		return
	}
	writeAdmin(w, http.StatusOK, adminDay{Day: day})
}

func (g *Gateway) serveDay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAdmin(w, http.StatusMethodNotAllowed, adminDay{Error: "method_not_allowed"})
		return
	}
	day, coherent, err := FleetDay(r.Context(), g.cfg.Shards)
	if err != nil {
		writeAdmin(w, http.StatusBadGateway, adminDay{Error: err.Error()})
		return
	}
	if !coherent {
		writeAdmin(w, http.StatusConflict, adminDay{Day: day, Error: "epoch_skew"})
		return
	}
	writeAdmin(w, http.StatusOK, adminDay{Day: day})
}
