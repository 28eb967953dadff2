package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
// mid-request) before giving up with 503 epoch_skew.
const maxEpochRetries = 3

// Gateway is the fleet's front door: one HTTP surface, N shards behind
// it. Single-app routes are proxied to their ring owner untouched; the
// listing is stitched across shards by a deterministic k-way merge on
// global app ID; /stats aggregates; /metrics merges every node's
// registry. Every scatter response is checked for epoch coherence — the
// gateway never returns data mixing two simulated days, even while a
// fleet day-roll's commits are fanning out.
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

func shardUnreachable(c *ShardClient) *apiwire.Error {
	return &apiwire.Error{Status: http.StatusBadGateway, Code: "shard_unreachable",
		Message: "shard " + c.Name + " unreachable"}
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

// --- stats aggregation -----------------------------------------------------

// shardStats is one shard's parsed /api/v1/stats response.
type shardStats struct {
	stats storeserver.StatsJSON
	day   string
	cc    string
	age   string
}

// serveStats scatters /api/v1/stats to every shard, verifies the fleet is
// on one epoch, and serves the summed document. The body and ETag are
// byte-identical to what a single node holding the whole catalog would
// serve: apps and downloads sum across disjoint partitions, and the ETag
// is the same "s<day>-t<total>" content hash.
func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	var agg storeserver.StatsJSON
	var day, cc, age string
	err := g.retryEpoch(func() (string, *apiwire.Error) {
		results := make([]shardStats, len(g.cfg.Shards))
		gerr := g.scatter(r.Context(), func(ctx context.Context, i int) *apiwire.Error {
			resp, err := g.cfg.Shards[i].get(ctx, apiwire.StatsPath, nil)
			if err != nil {
				return shardUnreachable(&g.cfg.Shards[i])
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return &apiwire.Error{Status: http.StatusServiceUnavailable, Code: "shard_unavailable",
					Message: "shard " + g.cfg.Shards[i].Name + " answered " + strconv.Itoa(resp.StatusCode)}
			}
			var s storeserver.StatsJSON
			body, err := readCapped(new(bytes.Buffer), resp, maxStatsBody)
			if err == nil {
				err = json.Unmarshal(body, &s)
			}
			if err != nil {
				return &apiwire.Error{Status: http.StatusBadGateway, Code: "shard_bad_response",
					Message: "shard " + g.cfg.Shards[i].Name + ": " + err.Error()}
			}
			results[i] = shardStats{
				stats: s,
				day:   resp.Header.Get("X-Store-Day"),
				cc:    resp.Header.Get("Cache-Control"),
				age:   resp.Header.Get("Age"),
			}
			return nil
		})
		if gerr != nil {
			return "", gerr
		}
		agg = storeserver.StatsJSON{Store: results[0].stats.Store, Day: results[0].stats.Day}
		day, cc, age = results[0].day, results[0].cc, results[0].age
		for _, res := range results {
			if res.day != day {
				return "", nil // epoch skew: caller retries
			}
			agg.Apps += res.stats.Apps
			agg.TotalDownloads += res.stats.TotalDownloads
		}
		return day, nil
	})
	if err != nil {
		err.Write(w)
		return
	}
	etag := `"s` + day + `-t` + strconv.FormatInt(agg.TotalDownloads, 10) + `"`
	h := w.Header()
	stamp(h, cc, age)
	h.Set("Etag", etag)
	h.Set("X-Store-Day", day)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(agg) //nolint:errcheck
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing useful to do
}

// --- cross-shard listing ---------------------------------------------------

// gwCursorPrefix versions the packed gateway cursor format.
const gwCursorPrefix = "g1:"

// packCursor renders the gateway cursor: per-shard global-app-ID anchors,
// one per ring shard, wrapped opaque. Anchors are global IDs, not row
// indices, so a packed cursor stays valid across fleet day-rolls (the
// catalog is append-only) — the same stability the single-node cursor
// has, lifted to the fleet.
func packCursor(anchors []int32) string {
	var sb strings.Builder
	sb.WriteString(gwCursorPrefix)
	sb.WriteString(strconv.Itoa(len(anchors)))
	for _, a := range anchors {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(a), 10))
	}
	return base64.RawURLEncoding.EncodeToString([]byte(sb.String()))
}

// unpackCursor parses a packed gateway cursor. shards mismatching the
// current ring (a fleet resize since the cursor was minted) is reported
// as !ok — the anchors would resume against the wrong partitions.
func unpackCursor(cur string, shards int) ([]int32, bool) {
	raw, err := base64.RawURLEncoding.DecodeString(cur)
	if err != nil || !strings.HasPrefix(string(raw), gwCursorPrefix) {
		return nil, false
	}
	parts := strings.Split(string(raw[len(gwCursorPrefix):]), ":")
	if len(parts) < 1 {
		return nil, false
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil || k != shards || len(parts) != k+1 {
		return nil, false
	}
	anchors := make([]int32, k)
	for i, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil || v < 0 {
			return nil, false
		}
		anchors[i] = int32(v)
	}
	return anchors, true
}

// shardPage is one shard's cursor-page response, kept as the bytes it
// arrived in: rows are spans into body, spliced verbatim into the
// assembled page so a row through the gateway is byte-identical to the
// same row from a single node.
type shardPage struct {
	buf    *bytes.Buffer // owns body; back to listBufs once no row is in use
	body   []byte
	rows   []rowSpan
	total  int
	anchor int32 // the global ID this slice was asked from
	next   int32 // decoded next_cursor anchor; -1 = shard reported no more
	day    string
	etag   string
	cc     string
	age    string
}

// assembled is one merged gateway listing page.
type assembled struct {
	rows    [][]byte        // row bytes, each aliasing a shard response body
	bufs    []*bytes.Buffer // those bodies' owners, released after the page is written
	anchors []int32         // next per-shard anchors after this page
	done    bool            // every shard drained: no next page
	total   int
	day     string
	etag    string
	cc      string
	age     string
}

// Caps on what one shard response may make the gateway buffer. A listing
// slice of PageSize rows is tens of KiB and a stats document tens of
// bytes; anything past these is a broken or hostile shard.
const (
	maxListBody  = 8 << 20
	maxStatsBody = 4 << 10
)

var errBodyTooLarge = errors.New("response body exceeds the gateway's cap")

// listBufs recycles the buffers a merged page passes through: the shard
// response bodies it is spliced from and the page itself. A buffer goes
// back only when nothing aliases it any more — a shard body after the
// merged page has been written (or abandoned), never when its shardPage
// is replaced by a top-up, since rows already merged still point into it.
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

// readCapped reads a shard response body of at most max bytes into buf,
// sized up front from Content-Length when the shard sent one.
func readCapped(buf *bytes.Buffer, resp *http.Response, max int64) ([]byte, error) {
	if resp.ContentLength > max {
		return nil, errBodyTooLarge
	}
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, max+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > max {
		return nil, errBodyTooLarge
	}
	return buf.Bytes(), nil
}

// fetchShardPage pulls one shard's listing slice anchored at a global ID
// and locates its rows in place. Beyond being well-formed JSON the slice
// must be a slice of this listing — ids ascending from the anchor, a
// next_cursor past the last row and only after at least one row — which
// is what lets the merge trust it to make progress.
func (g *Gateway) fetchShardPage(ctx context.Context, i int, anchor int32, limit int) (*shardPage, *apiwire.Error) {
	c := &g.cfg.Shards[i]
	resp, err := c.get(ctx, apiwire.CursorPath(apiwire.EncodeCursor(int(anchor)), limit), nil)
	if err != nil {
		return nil, shardUnreachable(c)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &apiwire.Error{Status: http.StatusServiceUnavailable, Code: "shard_unavailable",
			Message: "shard " + c.Name + " answered " + strconv.Itoa(resp.StatusCode)}
	}
	buf := getListBuf()
	bad := func(why string) (*shardPage, *apiwire.Error) {
		listBufs.Put(buf)
		return nil, &apiwire.Error{Status: http.StatusBadGateway, Code: "shard_bad_response",
			Message: "shard " + c.Name + ": " + why}
	}
	body, err := readCapped(buf, resp, maxListBody)
	if err != nil {
		return bad(err.Error())
	}
	scanned, err := scanPage(body, make([]rowSpan, 0, limit))
	if err != nil {
		return bad(err.Error())
	}
	page := &shardPage{
		buf:    buf,
		body:   body,
		rows:   scanned.rows,
		total:  scanned.total,
		anchor: anchor,
		next:   -1,
		day:    resp.Header.Get("X-Store-Day"),
		etag:   resp.Header.Get("Etag"),
		cc:     resp.Header.Get("Cache-Control"),
		age:    resp.Header.Get("Age"),
	}
	floor := anchor
	for _, row := range page.rows {
		if row.id < floor || body[row.off] != '{' {
			return bad("rows are not listing rows ascending from the cursor")
		}
		floor = row.id + 1
	}
	if len(scanned.next) > 0 {
		v, ok := apiwire.DecodeCursor(string(scanned.next))
		if !ok || len(page.rows) == 0 || int32(v) < floor {
			return bad("unusable next_cursor")
		}
		page.next = int32(v)
	}
	return page, nil
}

// quotas sizes the scatter from the ring: it walks ids upward from the
// lowest anchor, counting for each id still ahead of its owner's anchor
// one row against that owner, until limit rows are accounted for — on a
// dense catalog exactly the rows the merged page will hold, so the
// shards together ship limit rows, not limit each. A shard owed nothing
// is still asked for one row: every page consults every shard for its
// epoch, total and validator. The walk is bounded; anchors too far apart
// to finish within the bound (a forged cursor, a shard that never owned
// a row) fall back to limit everywhere. Quotas only economise: a shard
// that turns out to be owed more is topped up by the merge.
func (g *Gateway) quotas(anchors []int32, limit int) []int {
	q := make([]int, len(anchors))
	lo := anchors[0]
	for _, a := range anchors[1:] {
		lo = min(lo, a)
	}
	end := min(int64(lo)+4*int64(limit), math.MaxInt32+1)
	for id, found := int64(lo), 0; found < limit; id++ {
		if id == end {
			for i := range q {
				q[i] = limit
			}
			return q
		}
		if o := g.ring.Owner(int32(id)); int32(id) >= anchors[o] {
			q[o]++
			found++
		}
	}
	for i := range q {
		q[i] = max(q[i], 1)
	}
	return q
}

// FNV-1a, inlined: the validator digest is a few dozen bytes per page and
// hash/fnv's interface would cost an allocation per write.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvUint32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime64
	}
	return h
}

// assemble builds one merged listing page of up to limit rows starting at
// the per-shard anchors. Every shard is consulted — a shard believed
// exhausted still gets a probe, because a day-roll may have grown its
// partition (append-only catalog) and because the page's epoch check and
// total must cover the whole fleet. Rows merge in ascending global app ID
// order, which is exactly a single node's listing order, so the union
// walk is the single-node walk. A shard whose slice ran out while it has
// more is topped up before any row at or past its next anchor is
// emitted, so the merge is right whatever the shards chose to deliver —
// a quota that undercounted, a shard clamping to a smaller page size.
// Returns (nil, nil) on epoch skew — the caller's retry loop re-fetches;
// anchors are global IDs, valid in any epoch, so the retry needs no
// repositioning.
func (g *Gateway) assemble(ctx context.Context, anchors []int32, limit int) (page *assembled, _ *apiwire.Error) {
	k := len(g.cfg.Shards)
	quota := g.quotas(anchors, limit)
	pages := make([]*shardPage, k)
	gerr := g.scatter(ctx, func(ctx context.Context, i int) *apiwire.Error {
		p, e := g.fetchShardPage(ctx, i, anchors[i], quota[i])
		pages[i] = p
		return e
	})
	// Every body fetched for this page, top-ups included, is held until
	// the page is served; an attempt that yields no page lets go of them.
	held := make([]*bytes.Buffer, 0, k+1)
	for _, p := range pages {
		if p != nil {
			held = append(held, p.buf)
		}
	}
	defer func() {
		if page == nil {
			putListBufs(held)
		}
	}()
	if gerr != nil {
		return nil, gerr
	}
	out := &assembled{
		rows:    make([][]byte, 0, limit),
		anchors: make([]int32, k),
		day:     pages[0].day,
		cc:      pages[0].cc,
		age:     pages[0].age,
	}
	// The gateway's validator digests the request's position and size and
	// the content-derived ETag of every shard slice the page was built
	// from, so it revalidates (304) exactly when every spanned slice is
	// unchanged — including across day-rolls that left the span untouched.
	sum := uint64(fnvOffset64)
	if limit != g.cfg.PageSize {
		sum = fnvUint32(fnvString(sum, "k"), uint32(limit))
	}
	digest := func(p *shardPage) {
		sum = fnvString(fnvString(fnvUint32(sum, uint32(p.anchor)), p.etag), ";")
	}
	for _, p := range pages {
		if p.day != out.day {
			return nil, nil // epoch skew
		}
		out.total += p.total
		digest(p)
	}

	heads := make([]int, k)
	for len(out.rows) < limit {
		// best: the shard whose buffered head row has the lowest id.
		// starved: of the shards with an empty buffer and more to give,
		// the one resuming lowest.
		best, starved := -1, -1
		for i, p := range pages {
			switch {
			case heads[i] < len(p.rows):
				if best < 0 || p.rows[heads[i]].id < pages[best].rows[heads[best]].id {
					best = i
				}
			case p.next >= 0 && (starved < 0 || p.next < pages[starved].next):
				starved = i
			}
		}
		if starved >= 0 && (best < 0 || pages[starved].next <= pages[best].rows[heads[best]].id) {
			// The next row in ID order may be one the starved shard has
			// not sent yet: fetch the rest of the page from it first.
			p, e := g.fetchShardPage(ctx, starved, pages[starved].next, limit-len(out.rows))
			if e != nil {
				return nil, e
			}
			held = append(held, p.buf)
			if p.day != out.day {
				return nil, nil // epoch skew
			}
			g.topUps.Inc()
			digest(p)
			pages[starved], heads[starved] = p, 0
			continue
		}
		if best < 0 {
			break
		}
		row := pages[best].rows[heads[best]]
		out.rows = append(out.rows, pages[best].body[row.off:row.end])
		heads[best]++
	}
	out.done = true
	for i, p := range pages {
		switch {
		case heads[i] < len(p.rows):
			// Unconsumed buffered rows: resume at the first of them.
			out.anchors[i] = p.rows[heads[i]].id
			out.done = false
		case p.next >= 0:
			// Buffer drained but the shard has more.
			out.anchors[i] = p.next
			out.done = false
		case len(p.rows) > 0:
			// Shard exhausted: park just past its last row, where rows
			// appended by a future day-roll will appear.
			out.anchors[i] = p.rows[len(p.rows)-1].id + 1
		default:
			out.anchors[i] = p.anchor
		}
	}
	out.etag = `"g` + strconv.FormatUint(sum, 16) + `"`
	out.bufs = held
	return out, nil
}

// retryEpoch runs one scatter attempt up to maxEpochRetries+1 times. An
// attempt returns its observed day ("" = shards disagreed → retry) or a
// hard error. Exhausting retries yields 503 epoch_skew — the fleet was
// mid-commit the whole time, which a two-phase roll makes vanishingly
// brief, so a client retry will land in the new epoch.
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

// serveList handles /api/v1/apps: one merged listing slice of limit rows,
// assembled by ID merge from per-shard anchors packed into one opaque
// cursor, under the epoch-retry loop. The query grammar — ?page= refused,
// first value wins, absent or empty cursor starts a walk, limit clamped —
// is the store's. The body is the shards' row bytes spliced between
// hand-written envelope bytes, exactly what encoding the page as JSON
// would produce (compact, next_cursor absent on the last page, trailing
// newline).
func (g *Gateway) serveList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer g.mergeSeconds.ObserveSince(start)
	rq := r.URL.RawQuery
	if _, ok := apiwire.QueryValue(rq, "page"); ok {
		apiwire.PageUnsupported.Write(w)
		return
	}
	anchors := make([]int32, len(g.cfg.Shards))
	if cursor, _ := apiwire.QueryValue(rq, "cursor"); cursor != "" {
		a, ok := unpackCursor(cursor, len(g.cfg.Shards))
		if !ok {
			apiwire.WriteError(w, http.StatusBadRequest, "bad_cursor",
				"cursor is invalid, from an incompatible version, or from a different fleet topology", 0)
			return
		}
		anchors = a
	}
	limit := g.cfg.PageSize
	if lim, _ := apiwire.QueryValue(rq, "limit"); lim != "" {
		v, ok := apiwire.ParseLimit(lim)
		if !ok {
			apiwire.BadLimit.Write(w)
			return
		}
		limit = min(limit, v)
	}
	var asm *assembled
	err := g.retryEpoch(func() (string, *apiwire.Error) {
		a, e := g.assemble(r.Context(), anchors, limit)
		if a == nil {
			return "", e
		}
		asm = a
		return a.day, nil
	})
	if err != nil {
		err.Write(w)
		return
	}
	defer putListBufs(asm.bufs)
	g.mergedPages.Inc()
	h := w.Header()
	stamp(h, asm.cc, asm.age)
	h.Set("Etag", asm.etag)
	h.Set("X-Store-Day", asm.day)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), asm.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	cursor := ""
	if !asm.done {
		cursor = packCursor(asm.anchors)
	}
	size := 96 + len(cursor) + len(asm.rows) // envelope keys and numbers; one comma per row
	for _, row := range asm.rows {
		size += len(row)
	}
	out := getListBuf()
	defer listBufs.Put(out)
	out.Grow(size)
	buf := append(out.AvailableBuffer(), `{"apps":[`...)
	for i, row := range asm.rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, row...)
	}
	buf = append(buf, ']')
	if cursor != "" {
		buf = append(append(append(buf, `,"next_cursor":"`...), cursor...), '"')
	}
	buf = append(buf, `,"total":`...)
	buf = strconv.AppendInt(buf, int64(asm.total), 10)
	buf = append(buf, "}\n"...)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf) //nolint:errcheck // client gone; nothing useful to do
}

// stamp marks a gateway-assembled response the way the shards marked the
// slices it was built from: the API version plus their freshness headers.
func stamp(h http.Header, cc, age string) {
	h.Set("X-API-Version", apiwire.Version)
	if cc != "" {
		h.Set("Cache-Control", cc)
	}
	if age != "" {
		h.Set("Age", age)
	}
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

// --- metrics ---------------------------------------------------------------

// serveMetrics serves the fleet-wide exposition: the gateway's own
// routing/merge counters plus every shard's node-labelled series, one
// page, one TYPE header per family. Every shard's page is fetched through
// its ShardClient — a function call in process, a scrape across a network
// — so the shard's own /metrics handler runs and refreshes the gauges it
// computes per scrape (arena, GC).
func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pages := make([][]byte, 1, len(g.cfg.Shards)+1)
	var own bytes.Buffer
	g.reg.WriteText(&own)
	pages[0] = own.Bytes()
	for i := range g.cfg.Shards {
		resp, err := g.cfg.Shards[i].get(r.Context(), "/metrics", nil)
		if err != nil {
			continue // a dead shard must not take the whole exposition down
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			pages = append(pages, body)
		}
	}
	mergeExpositionPages(w, pages)
}

// mergeExpositionPages regroups several exposition pages into one: every
// family appears once, with a single TYPE header, its series from all
// pages concatenated. Families are emitted in sorted order.
func mergeExpositionPages(w io.Writer, pages [][]byte) {
	type family struct {
		typ   string
		lines []string
	}
	fams := map[string]*family{}
	var order []string
	var current *family
	for _, page := range pages {
		current = nil
		for _, line := range strings.Split(string(page), "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				parts := strings.Fields(line)
				if len(parts) < 4 {
					current = nil
					continue
				}
				name, typ := parts[2], parts[3]
				f, ok := fams[name]
				if !ok {
					f = &family{typ: typ}
					fams[name] = f
					order = append(order, name)
				}
				current = f
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			if current == nil {
				// An untyped series: family is its bare name.
				name := line
				if i := strings.IndexAny(name, "{ "); i >= 0 {
					name = name[:i]
				}
				f, ok := fams[name]
				if !ok {
					f = &family{}
					fams[name] = f
					order = append(order, name)
				}
				f.lines = append(f.lines, line)
				continue
			}
			current.lines = append(current.lines, line)
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if f.typ != "" {
			io.WriteString(w, "# TYPE "+name+" "+f.typ+"\n") //nolint:errcheck
		}
		for _, line := range f.lines {
			io.WriteString(w, line+"\n") //nolint:errcheck
		}
	}
}
