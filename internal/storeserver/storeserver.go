// Package storeserver exposes a synthetic appstore over HTTP, standing in
// for the live marketplaces the paper crawled. It serves a paginated JSON
// catalog, per-app detail and comment pages, and store-level statistics,
// with token-bucket rate limiting per client IP — the defense the real
// Chinese stores applied that forced the paper's authors to proxy through
// PlanetLab nodes in China.
//
// The server wraps a marketsim.Market but never serves from it directly:
// on New and on each AdvanceDay it freezes the market into an immutable
// snapshot (see snapshot.go) published through an atomic pointer, RCU
// style. Handlers load the pointer once per request and serve cached
// validators with snapshot-derived ETags — the read path takes no
// server-wide lock, a warm document allocates nothing but the header
// slots net/http's fresh per-request map needs, and only the gzip
// bodies that pay are kept; identity bytes are re-encoded from the
// snapshot's rows by an append encoder on each 200. The store changes
// once per simulated day, exactly the daily-snapshot cadence the paper's
// crawls (and Potharaju et al.'s longitudinal Google Play study) observe,
// so a day's worth of traffic amortizes each document's single fill.
package storeserver

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/comments"
	"planetapps/internal/faultinject"
	"planetapps/internal/gcstats"
	"planetapps/internal/gzipx"
	"planetapps/internal/marketsim"
	"planetapps/internal/metrics"
	"planetapps/internal/wal"
)

// AppJSON is the wire representation of one app listing.
type AppJSON struct {
	ID        int32   `json:"id"`
	Name      string  `json:"name"`
	Category  string  `json:"category"`
	Developer string  `json:"developer"`
	Paid      bool    `json:"paid"`
	Price     float64 `json:"price"`
	HasAds    bool    `json:"has_ads"`
	SizeMB    float64 `json:"size_mb"`
	Version   int     `json:"version"`
	Downloads int64   `json:"downloads"`
}

// CommentJSON is the wire representation of one comment.
type CommentJSON struct {
	User     int32 `json:"user"`
	Rating   int8  `json:"rating"`
	UnixTime int64 `json:"t"`
}

// StatsJSON is the store-level statistics document.
type StatsJSON struct {
	Store          string `json:"store"`
	Day            int    `json:"day"`
	Apps           int    `json:"apps"`
	TotalDownloads int64  `json:"total_downloads"`
}

// Config controls server behaviour.
type Config struct {
	// PageSize is the number of apps in a listing slice, and the ceiling
	// on a request's ?limit=.
	PageSize int
	// RatePerSec is the per-client sustained request rate; <= 0 disables
	// rate limiting.
	RatePerSec float64
	// Burst is the per-client token bucket depth, minimum 1.
	Burst int
	// Latency is an artificial per-request service delay.
	Latency time.Duration
	// DayInterval is the wall-clock cadence at which the operator rolls
	// the store (appstored -day-every). When set, every /api/v1 response
	// carries Cache-Control: max-age=<interval> plus an Age counted from
	// the serving snapshot's publish, so a downstream cache holding the
	// response knows exactly how long it stays fresh: max-age - Age is
	// the time to the next expected day-roll.
	DayInterval time.Duration
	// FreshFor is the freshness lifetime advertised when DayInterval is
	// zero (manual / in-process rolls): responses claim max-age=FreshFor
	// with Age 0. Zero advertises max-age=0 — always revalidate — the
	// strictly correct stance when the next roll is unscheduled.
	FreshFor time.Duration
	// Node names this server instance in its metrics registry (the
	// `node` label on every exposed series; none when empty). Fleet
	// members are "shard-0", "shard-1", ... so the gateway's merged
	// /metrics page keeps their series apart.
	Node string
	// Partition, when set, restricts the server to its shard of the
	// catalog: every snapshot is built over the partitioner's export of
	// the market, so the server holds (and serves) only the rows it owns,
	// under their global app IDs. The full market still steps
	// underneath — all fleet members run the same deterministic
	// simulation and carve disjoint slices out of it.
	Partition *marketsim.Partitioner
	// Capacity bounds concurrently serviced API requests (0 = unbounded).
	// Together with Latency it models a fixed-capacity store machine —
	// max throughput Capacity/Latency — which is what the fleet scaling
	// benchmark measures against on a host with fewer cores than shards.
	Capacity int
}

// DefaultPageSize is the listing slice a node serves, and a gateway
// assembles, when Config.PageSize is left zero — as every program here
// leaves it, so a fleet's merged pages cannot disagree with its shards'.
const DefaultPageSize = 100

// DefaultConfig returns a config suitable for in-process crawling tests.
func DefaultConfig() Config {
	return Config{PageSize: DefaultPageSize, RatePerSec: 200, Burst: 50}
}

// Server serves one simulated appstore.
type Server struct {
	cfg Config

	// mu serializes the writers (AdvanceDay, SetComments), which step the
	// market and publish a fresh snapshot. Readers never take it.
	mu          sync.Mutex
	market      *marketsim.Market
	comments    *comIndex
	commentsGen int64

	// wlog buffers client mutations between day-rolls; absorbWrites folds
	// its rotated delta into the market and, for comments, into comTab
	// (copy-on-write, shared with snapshots): the merged streams and the
	// per-row write versions that advance comment ETags only for apps that
	// actually received writes.
	wlog   *wal.Log
	comTab comTable

	// snap is the serving snapshot, swapped wholesale by publish. A
	// handler loads it exactly once and serves the whole request from that
	// load, so a concurrent AdvanceDay can never mix two days in one
	// response.
	snap atomic.Pointer[snapshot]

	// pending holds a snapshot built by PrepareDay but not yet committed —
	// phase 1 of the fleet's two-phase day-roll. Guarded by mu.
	pending *snapshot

	lim *limiter

	// capSem, when non-nil, is the Capacity admission semaphore.
	capSem chan struct{}

	// chaos, when set via SetChaos before Handler, injects scenario faults
	// into the API routes (never /metrics).
	chaos *faultinject.Injector

	reg      *metrics.Registry
	total    *metrics.Counter
	limited  *metrics.Counter
	inFlight *metrics.Gauge

	// routeByKind indexes the same instruments by the router's route kind
	// so dispatch never hashes a route-name string on the request path.
	routeByKind [apiwire.None]*routeInstruments

	// writeRes holds the store_writes_total{endpoint,result} counters for
	// the POST-capable route kinds, pre-registered so the write path never
	// takes the registry lock.
	writeRes [apiwire.None]map[string]*metrics.Counter

	// ccValue is the pre-rendered Cache-Control header value of document
	// responses ("max-age=N"), fixed by config at construction.
	ccValue string

	// Snapshot-build telemetry: documents carried forward vs allocated
	// fresh per publish, and the build duration.
	carried      *metrics.Counter
	reencoded    *metrics.Counter
	buildSeconds *metrics.Histogram

	// slabsMade counts the document-cache slabs every snapshot arena has
	// taken from the heap; movedDocs/compactions count documents evacuated
	// (byte-copied, never re-encoded) out of mostly-dead arenas and the
	// arenas so retired.
	slabsMade   atomic.Int64
	movedDocs   *metrics.Counter
	compactions *metrics.Counter
}

// New creates a server over a market. Comment streams may be attached with
// SetComments.
func New(m *marketsim.Market, cfg Config) *Server {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	s := &Server{
		cfg:    cfg,
		market: m,
	}
	var maxAge int64
	switch {
	case cfg.DayInterval > 0:
		maxAge = int64((cfg.DayInterval + time.Second - 1) / time.Second)
	case cfg.FreshFor > 0:
		maxAge = int64((cfg.FreshFor + time.Second - 1) / time.Second)
	}
	s.ccValue = "max-age=" + strconv.FormatInt(maxAge, 10)
	s.initMetrics()
	s.wlog = wal.New(wal.Config{}, s.reg)
	s.publish()
	if cfg.RatePerSec > 0 {
		s.lim = newLimiter(cfg.RatePerSec, cfg.Burst, idleTTL)
	}
	if cfg.Capacity > 0 {
		s.capSem = make(chan struct{}, cfg.Capacity)
	}
	return s
}

// export freezes the market's serving state: all of it, or on a shard the
// rows its partition owns, read in the market's day rows with their counts
// copied out of it — a shard never holds a dense export.
func (s *Server) export() *marketsim.Export {
	if s.cfg.Partition != nil {
		return s.cfg.Partition.PartitionMarket(s.market)
	}
	return s.market.Export()
}

// publish freezes the market plus the current comment set into a new
// snapshot and swaps it in, carrying forward the previous snapshot's
// pre-encoded documents wherever the underlying rows did not change.
// Callers must hold s.mu (the constructor is exempt: the server has not
// escaped yet).
func (s *Server) publish() {
	s.install(s.build())
}

// build freezes the current market + comment state into a snapshot
// without swapping it in (phase 1 of a two-phase roll). Callers hold mu.
func (s *Server) build() *snapshot {
	start := time.Now()
	prev := s.snap.Load()
	sn := newSnapshot(s.export(), prev, s.comments, s.commentsGen, s.comTab, s.cfg.PageSize, &s.slabsMade)
	s.buildSeconds.ObserveSince(start)
	return sn
}

// install swaps a built snapshot in and accounts for it (phase 2).
// Callers hold mu.
func (s *Server) install(sn *snapshot) {
	s.snap.Store(sn)
	s.carried.Add(sn.carried)
	s.reencoded.Add(sn.reencoded)
	s.movedDocs.Add(sn.moved)
	s.compactions.Add(sn.compacted)
}

// PrepareDay is phase 1 of the fleet's two-phase day-roll: step the
// market one day and build — but do not serve — the next snapshot.
// Requests keep hitting the previous day until CommitDay. Idempotent
// while a prepared day is pending (a coordinator retrying phase 1 against
// a shard that already prepared gets the same day back). Returns the
// prepared day.
func (s *Server) PrepareDay() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil {
		return s.pending.day, nil
	}
	if err := s.market.Step(); err != nil {
		return 0, err
	}
	s.absorbWrites()
	s.pending = s.build()
	return s.pending.day, nil
}

// CommitDay is phase 2: atomically swap the prepared snapshot into
// service. The swap is one atomic pointer store, so across a fleet the
// commit fan-out happens in microseconds even when the builds took
// milliseconds — the window in which shards disagree about the day is as
// narrow as it can be made without a global stop-the-world. Returns the
// serving day; without a pending snapshot it is a no-op (idempotent
// commit retries are safe).
func (s *Server) CommitDay() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return s.snap.Load().day
	}
	sn := s.pending
	s.pending = nil
	s.install(sn)
	return sn.day
}

// SetComments attaches a generated comment population, served per app at
// /api/v1/apps/{id}/comments. It publishes a fresh snapshot so in-flight
// requests keep the old comment set and new requests see the new one. An
// installed population is read-only: every store handed the same slice
// reads one per-app index of it, built by the first (indexFor), so cs must
// not be written while any store serves it. A shard serves the streams of
// the apps it lists out of the index and never reads the rest.
func (s *Server) SetComments(cs []comments.Comment) {
	idx := indexFor(cs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.comments = idx
	s.commentsGen++
	// The attached stream replaces everything, including any write-merged
	// streams; per-app write versions restart with it.
	s.comTab = nil
	// A snapshot prepared before this call would serve the old comment
	// set; discard it rather than commit stale state.
	s.pending = nil
	s.publish()
}

// AdvanceDay rolls a node on its own: both phases back to back, so a day
// that was already prepared is the day that gets served. Requests in
// flight keep serving the previous day; there is no quiescence barrier
// because old snapshots are simply garbage-collected once the last reader
// drops them.
func (s *Server) AdvanceDay() error {
	if _, err := s.PrepareDay(); err != nil {
		return err
	}
	s.CommitDay()
	return nil
}

// absorbWrites rotates the ingest buffer and folds the sealed
// day-delta into the market and comment state, so the snapshot about to
// be built carries every acknowledged write. Runs under s.mu, after a
// successful market step: the delta lands in the new day exactly once,
// and a Step error (simulation period exhausted) leaves the buffer
// accumulating instead of dropping a rotated delta on the floor. Writes
// arriving during a fleet commit window (after PrepareDay rotated, before
// CommitDay swaps) simply stay buffered and join the following epoch —
// an acknowledged write is never split across days.
func (s *Server) absorbWrites() {
	d := s.wlog.Rotate()
	if d.Empty() {
		return
	}
	apps := d.Apps()
	s.market.ApplyDownloadDelta(apps, func(id int32) int64 { return d.Downloads[id] })
	if len(d.Comments) > 0 {
		s.mergeComments(apps, d.Comments)
	}
}

// mergeComments appends the day's comment records to their apps' streams
// in comTab. Copy-on-write at chunk grain: the table and its chunks are
// shared with published snapshots still serving readers, so the spine, the
// chunks holding a written row, and every written stream are cloned before
// the append — O(written apps + catalog/docChunk), never the catalog, and
// the SetComments index, which every store of the population shares, is
// only read. apps lists the delta's apps in
// ascending order, which is ascending row order on any export.
func (s *Server) mergeComments(apps []int32, recs map[int32][]wal.Rec) {
	// Rows are resolved against the serving export: handleWrite admitted
	// each app against a serving snapshot, and rows never move.
	ex := s.snap.Load().ex
	tab := make(comTable, numDocChunks(ex.NumApps()))
	copy(tab, s.comTab)
	// Every comment merged into day D is stamped at the day boundary: the
	// merged bytes are a pure function of the accepted record set, which
	// is what makes the next snapshot byte-identical across worker counts.
	t := int64(s.market.Day()) * 86400
	cloned := -1 // the chunk this merge already owns
	for _, id := range apps {
		rs := recs[id]
		if len(rs) == 0 {
			continue
		}
		i, ok := ex.IndexOf(id)
		if !ok {
			continue
		}
		c, j := i/docChunk, i%docChunk
		if c != cloned {
			ch := new(comChunk)
			if tab[c] != nil {
				*ch = *tab[c]
			}
			tab[c], cloned = ch, c
		}
		ch := tab[c]
		old := ch.streams[j]
		if ch.ver[j] == 0 {
			old = s.comments.stream(id)
		}
		merged := make([]CommentJSON, len(old), len(old)+len(rs))
		copy(merged, old)
		for _, rec := range rs {
			merged = append(merged, CommentJSON{User: rec.User, Rating: rec.Rating, UnixTime: t})
		}
		ch.streams[j] = merged
		ch.ver[j]++
	}
	s.comTab = tab
}

// WALStats snapshots the ingest buffer's counters. After a quiescent
// double day-roll Accepted == Merged — the zero-lost-acknowledged-writes
// invariant the CI smoke job gates on — and Pending, the acknowledged
// writes a process exit would lose, is zero.
func (s *Server) WALStats() wal.Stats { return s.wlog.Stats() }

// Day returns the serving snapshot's day.
func (s *Server) Day() int {
	return s.snap.Load().day
}

// NumApps returns the number of apps the server serves today — its
// partition's, when it has one (what /api/v1/stats reports as "apps").
func (s *Server) NumApps() int {
	return s.snap.Load().n
}

// Handler returns the HTTP handler serving the /api/v1 routes plus the
// telemetry endpoint. Dispatch goes through the zero-alloc grammar of
// internal/apiwire instead of ServeMux (see router.go). /metrics sits
// outside both the rate limiter and the fault injector so a scraper is
// never 429'd (or chaos-injected) by the workload it is observing.
func (s *Server) Handler() http.Handler {
	var inner http.Handler = http.HandlerFunc(s.route)
	if s.chaos != nil {
		inner = s.chaos.Wrap(inner)
	}
	api := s.limit(inner)
	metricsH := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
				return
			}
			// Refresh the collector and arena gauges per scrape: GC
			// cost and arena occupancy are exactly the time-varying state
			// a scraper is here to observe.
			s.publishArenaStats()
			gcstats.Publish(s.reg)
			metricsH.ServeHTTP(w, r)
			return
		}
		api.ServeHTTP(w, r)
	})
}

// SetChaos installs a fault injector in front of the API routes (the
// /metrics endpoint stays fault-free so observation survives the storm).
// Must be called before Handler().
func (s *Server) SetChaos(inj *faultinject.Injector) { s.chaos = inj }

// limit applies per-client token-bucket rate limiting. A rejected request
// gets the error envelope carrying the limiter's actual time-to-next-token,
// both as a Retry-After header (ceiling seconds) and as retry_after_ms.
func (s *Server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.lim != nil {
			ok, wait := s.lim.allowWait(apiwire.ClientKey(r), time.Now())
			if !ok {
				s.limited.Inc()
				apiwire.WriteError(w, http.StatusTooManyRequests, "rate_limited",
					"rate limit exceeded", wait)
				return
			}
		}
		if s.capSem != nil {
			s.capSem <- struct{}{}
			defer func() { <-s.capSem }()
		}
		if s.cfg.Latency > 0 {
			time.Sleep(s.cfg.Latency)
		}
		next.ServeHTTP(w, r)
	})
}

// stamp marks a response with the API version and its freshness. With a
// scheduled day-roll cadence (Config.DayInterval) every response claims
// the full interval as max-age and an Age counted from the serving
// snapshot's publish, so a downstream cache's remaining freshness
// (max-age - Age) is exactly the time to the next expected roll. With
// manual rolls, Config.FreshFor is advertised with Age 0; with neither,
// max-age=0 (always revalidate). Both values are served from caches — the
// Cache-Control string is fixed at construction, the Age string re-renders
// at most once per second — so stamping renders nothing; it allocates only
// the header slots a fresh map lacks (see hset).
func (s *Server) stamp(h http.Header, sn *snapshot) {
	hset(h, hdrAPIVersion, apiwire.Version)
	hset(h, hdrCacheControl, s.ccValue)
	if s.cfg.DayInterval > 0 {
		hset(h, hdrAge, sn.ageString())
	} else {
		hset(h, hdrAge, "0")
	}
}

// serveDoc writes document i of kind k, honouring If-None-Match
// revalidation. X-Store-Day identifies the serving snapshot so a client
// (or the consistency stress test) can correlate a response with exactly
// one simulated day. The stamp precedes the conditional check so 304s
// carry it too: a revalidating cache resets its clock from the 304.
//
// A document that kept a gzip representation at fill time (see
// gzipx.CompressIfPays) is negotiated by Accept-Encoding: clients admitting
// gzip get the pre-compressed bytes with Content-Encoding: gzip and the
// representation's own "-gz" ETag, so If-None-Match validators only ever
// match the encoding they were minted for, and Vary: Accept-Encoding marks
// the choice on 200s and 304s alike. A document with one representation is
// served as it is and says nothing about Vary: claiming a choice that does
// not exist makes a downstream cache keep the same bytes once per variant.
//
// No document keeps its identity bytes, so an identity 200 re-encodes them
// into a pooled buffer (net/http's Write does not retain its argument); a
// 304, a HEAD or a gzip 200 never does. The wire never carries a
// Content-Length the bytes disagree with: re-encoded bytes of another
// length than the fill recorded are served with their own.
func (s *Server) serveDoc(w http.ResponseWriter, r *http.Request, sn *snapshot, k docKind, i int) {
	d := sn.doc(k, i)
	defer d.release()
	h := w.Header()
	s.stamp(h, sn)
	etag, clen := d.etag, d.clen
	gz := false
	if d.gzBody != nil {
		hset(h, hdrVary, "Accept-Encoding")
		if gzipx.AcceptsGzip(r.Header.Get("Accept-Encoding")) {
			etag, clen, gz = d.gzEtag, d.gzClen, true
		}
	}
	hset(h, hdrETag, etag)
	hset(h, hdrStoreDay, sn.dayStr)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if gz {
		hset(h, hdrContentEncoding, "gzip")
	}
	hset(h, hdrContentType, "application/json")
	if r.Method == http.MethodHead {
		hset(h, hdrContentLength, clen)
		return
	}
	body := d.gzBody
	if !gz {
		sn.render(&d, k, i)
		body = d.body
		if !lenIs(clen, len(body)) {
			clen = strconv.Itoa(len(body))
		}
	}
	hset(h, hdrContentLength, clen)
	w.Write(body) //nolint:errcheck // client gone; nothing useful to do
}

// lenIs reports whether clen, a Content-Length the fill rendered, is n.
func lenIs(clen string, n int) bool {
	v := 0
	for i := 0; i < len(clen); i++ {
		v = v*10 + int(clen[i]-'0')
	}
	return v == n
}

// apkScale converts an app's SizeMB into served bytes. Full-size APK
// payloads (megabytes x thousands of apps x daily crawls) would dominate
// test time for no modeling benefit, so one "MB" is served as 1 KiB; the
// crawler's version-aware transfer accounting is what the experiments
// exercise.
const apkScale = 1024

// handleAPK serves the app's current package as deterministic pseudo-random
// bytes. The payload depends on (app, version), and the response carries an
// ETag of the version so a version-aware crawler can avoid re-downloads
// ("we download each app version only once"). Unlike the JSON documents the
// body is streamed, not cached: APKs are the one payload large enough that
// caching every warm one would swamp the snapshot's footprint.
func (s *Server) handleAPK(w http.ResponseWriter, r *http.Request, sn *snapshot, idx int) {
	a := sn.ex.App(idx)
	id := int32(a.ID)
	etag := `"v` + strconv.Itoa(a.Versions) + `"`
	w.Header().Set("ETag", etag)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	size := int(a.SizeMB * apkScale)
	if size < 16 {
		size = 16
	}
	w.Header().Set("Content-Type", "application/vnd.android.package-archive")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	// Deterministic payload from (app, version) via a tiny xorshift
	// stream; cheap and reproducible without buffering the whole body.
	state := uint64(id)<<32 | uint64(a.Versions) | 1
	buf := make([]byte, 4096)
	for size > 0 {
		n := len(buf)
		if size < n {
			n = size
		}
		for i := 0; i < n; i += 8 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			for b := 0; b < 8 && i+b < n; b++ {
				buf[i+b] = byte(state >> (8 * b))
			}
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return
		}
		size -= n
	}
}
