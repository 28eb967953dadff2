// Package loadgen replays workload-model download streams as live HTTP
// traffic against a storeserver — the missing link between the paper's
// generative workload models (internal/model, internal/trace) and the
// ROADMAP's production-scale serving goal. A Generator drives a store in
// one of two classical load-testing disciplines:
//
//   - Open loop: requests are launched on a fixed schedule (target RPS per
//     ramp stage) regardless of how fast the server responds, the arrival
//     pattern of independent internet users. Slow responses pile up as
//     in-flight requests rather than slowing the arrival rate, so latency
//     under overload is measured honestly (no coordinated omission).
//   - Closed loop: N virtual users issue a request, wait for the response,
//     think, and repeat — the session behavior of a device checking an
//     appstore. Throughput self-regulates with server speed.
//
// Every virtual user presents a stable synthetic client address derived
// from the workload's user id (via X-Forwarded-For, the header the repo's
// proxy fleet uses), so the store's per-client rate limiter sees the same
// population structure the workload model generated.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/gcstats"
	"planetapps/internal/metrics"
	"planetapps/internal/model"
	"planetapps/internal/rng"
)

// Mode selects the load discipline.
type Mode int

const (
	// OpenLoop launches requests on a schedule defined by Stages.
	OpenLoop Mode = iota
	// ClosedLoop runs Users virtual users with think time.
	ClosedLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case OpenLoop:
		return "open"
	case ClosedLoop:
		return "closed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses "open" or "closed".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown mode %q (want open or closed)", s)
	}
}

// Stage is one open-loop ramp step: hold RPS for Duration.
type Stage struct {
	RPS      float64
	Duration time.Duration
}

// Config controls a Generator.
type Config struct {
	// BaseURL is the store root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; nil gets a client tuned for many
	// concurrent connections to one host.
	Client *http.Client

	// Mode selects open- or closed-loop driving.
	Mode Mode
	// Stages is the open-loop schedule; required for OpenLoop.
	Stages []Stage
	// Users is the closed-loop virtual-user count; required for ClosedLoop.
	Users int
	// Think is the mean closed-loop think time between a virtual user's
	// requests, drawn from an exponential distribution (0 = none).
	Think time.Duration

	// MaxInFlight bounds concurrently outstanding open-loop requests;
	// arrivals past the bound are dropped and counted (overload signal).
	// <= 0 defaults to 4096.
	MaxInFlight int
	// Warmup excludes the run's initial window from recorded statistics;
	// requests still fly, they are just tallied separately.
	Warmup time.Duration
	// Timeout is the per-request deadline; <= 0 defaults to 10s.
	Timeout time.Duration
	// MaxEvents stops the run after replaying this many workload events
	// (0 = run the source dry or until Stages end).
	MaxEvents int64
	// APKEvery issues a full APK download for every Nth event in addition
	// to the metadata request (0 = metadata only).
	APKEvery int
	// ListEvery issues a catalog listing request (the first slice) for
	// every Nth event in addition to the metadata request (0 = none) —
	// the catalog-browse slice of the workload mix. The first slice is the
	// only anchor every topology shares: cursors are opaque and
	// target-specific (a fleet gateway mints its own), so a generator
	// cannot fabricate mid-walk positions portably. It is the expensive
	// class on every target — a node renders the slice per request, and a
	// gateway scatters to every shard and merges theirs.
	ListEvery int
	// WriteMix is the fraction of workload events that also drive the
	// write funnel (0..1): each selected event POSTs a download for its
	// (user, app), and a deterministic slice of those add a rating and a
	// comment. Selection hashes (user, app) with Seed, so the same
	// workload and seed issue the same writes regardless of mode or
	// concurrency, and each write carries an Idempotency-Key derived from
	// the same tuple, so retries and re-runs dedup instead of
	// double-counting.
	WriteMix float64
	// AcceptGzip negotiates compressed transfer: every request carries an
	// explicit Accept-Encoding — "gzip" when set, "identity" when not —
	// so the wire representation is deterministic and visible (the Go
	// transport's invisible auto-gzip is bypassed either way). The report
	// then splits response bytes by the encoding that actually arrived.
	AcceptGzip bool
	// Seed drives think-time jitter.
	Seed uint64

	// DayRollAfter invokes DayRollFn once, this long into the measured
	// (post-warmup) window, so the run straddles a snapshot swap; requests
	// started before and after the roll completes are summarized
	// separately in the Report, making the post-swap cold-cache spike
	// (and a pre-warm's effect on it) directly visible (0 = no roll).
	DayRollAfter time.Duration
	// DayRollFn performs the mid-load day roll — typically the store's
	// AdvanceDay. Required when DayRollAfter > 0.
	DayRollFn func() error
}

// Request classes reported separately: metadata detail lookups, catalog
// listing pages, and APK payload downloads.
const (
	ClassDetail = "detail"
	ClassList   = "list"
	ClassAPK    = "apk"
)

// Write endpoints reported separately when WriteMix > 0. The names match
// the store's store_writes_total endpoint label, so client- and
// server-side write accounting line up term for term.
const (
	WriteDownload = "download"
	WriteRate     = "rate"
	WriteComment  = "comment"
)

// readClasses and writeEndpoints are the canonical report orders.
var (
	readClasses    = []string{ClassDetail, ClassList, ClassAPK}
	writeEndpoints = []string{WriteDownload, WriteRate, WriteComment}
)

// sendStats is the part of the books the shared request path keeps for
// reads and writes alike: requests sent in the measured window, requests
// the warm-up excluded, transport errors, full-window latency.
type sendStats struct {
	sent    metrics.Counter
	warmup  metrics.Counter
	errors  metrics.Counter
	latency *metrics.Histogram
}

// writeStats accumulates one write endpoint's outcomes, keyed by the
// store's ack vocabulary: accepted (logged fresh), deduped (idempotency
// replay), duplicate (natural key taken, 409), backpressure (WAL full,
// 429), rejected (any other non-2xx verdict).
type writeStats struct {
	sendStats
	accepted     metrics.Counter
	deduped      metrics.Counter
	duplicate    metrics.Counter
	backpressure metrics.Counter
	rejected     metrics.Counter
}

// classStats accumulates one request class. preRoll/postRoll split the
// measured window at the day-roll instant (populated only when a roll is
// configured; latency always carries the full window).
type classStats struct {
	sendStats
	ok          metrics.Counter
	rateLimited metrics.Counter
	otherStatus metrics.Counter
	preRoll     *metrics.Histogram
	postRoll    *metrics.Histogram

	// Response body bytes as they crossed the wire, split by the
	// Content-Encoding the server chose: gzipBytes arrived compressed,
	// identityBytes arrived plain. gzipResponses counts the former.
	gzipBytes     metrics.Counter
	identityBytes metrics.Counter
	gzipResponses metrics.Counter
}

// Generator replays a Source against a store. Create with New; a
// Generator is single-use (statistics accumulate across Run calls
// otherwise).
type Generator struct {
	cfg    Config
	client *http.Client

	srcMu     sync.Mutex
	src       Source
	srcErr    error
	events    int64
	dropped   metrics.Counter
	classes   map[string]*classStats
	writes    map[string]*writeStats
	startedAt time.Time
	measureAt time.Time

	// Day-roll bookkeeping: rollMark is the UnixNano instant DayRollFn
	// completed (0 until then); rollDur/rollErr are written by the roll
	// goroutine before the mark and read only after Run joins it.
	rollMark atomic.Int64
	rollDur  time.Duration
	rollErr  error

	// Epoch coherence check: once the roll has completed, every response
	// to a request STARTED afterwards must come from the new snapshot —
	// postRollDay pins the first X-Store-Day observed post-roll (-1 until
	// then) and mixedEpoch counts responses that disagreed with it. Against
	// a fleet this is the client-side proof that the two-phase swap never
	// let an old epoch leak past its commit.
	postRollDay atomic.Int64
	mixedEpoch  metrics.Counter

	// gcStart is the runtime GC state sampled when Run begins; report()
	// diffs against a second sample to attribute GC activity to the run.
	gcStart gcstats.Stats
}

// New validates cfg and returns a Generator.
func New(cfg Config) (*Generator, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	switch cfg.Mode {
	case OpenLoop:
		if len(cfg.Stages) == 0 {
			return nil, errors.New("loadgen: open loop requires at least one stage")
		}
		for i, st := range cfg.Stages {
			if st.RPS <= 0 || st.Duration <= 0 {
				return nil, fmt.Errorf("loadgen: stage %d: RPS and Duration must be positive", i)
			}
		}
	case ClosedLoop:
		if cfg.Users <= 0 {
			return nil, errors.New("loadgen: closed loop requires Users > 0")
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %v", cfg.Mode)
	}
	if cfg.DayRollAfter > 0 && cfg.DayRollFn == nil {
		return nil, errors.New("loadgen: DayRollAfter requires DayRollFn")
	}
	if cfg.WriteMix < 0 || cfg.WriteMix > 1 {
		return nil, fmt.Errorf("loadgen: WriteMix %g out of [0, 1]", cfg.WriteMix)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		}}
	}
	g := &Generator{
		cfg:     cfg,
		client:  client,
		classes: map[string]*classStats{},
		writes:  map[string]*writeStats{},
	}
	for _, class := range readClasses {
		g.classes[class] = &classStats{
			sendStats: sendStats{latency: metrics.NewHistogram()},
			preRoll:   metrics.NewHistogram(),
			postRoll:  metrics.NewHistogram(),
		}
	}
	for _, ep := range writeEndpoints {
		g.writes[ep] = &writeStats{sendStats: sendStats{latency: metrics.NewHistogram()}}
	}
	g.postRollDay.Store(-1)
	return g, nil
}

// next pulls the next workload event, enforcing MaxEvents; ok is false at
// the end of the workload.
func (g *Generator) next() (model.Event, bool) {
	g.srcMu.Lock()
	defer g.srcMu.Unlock()
	if g.srcErr != nil {
		return model.Event{}, false
	}
	if g.cfg.MaxEvents > 0 && g.events >= g.cfg.MaxEvents {
		return model.Event{}, false
	}
	e, err := g.src.Next()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			g.srcErr = err
		}
		return model.Event{}, false
	}
	g.events++
	return e, true
}

// clientAddr maps a workload user id to a stable synthetic client address
// so the store's per-client limiter sees one bucket per virtual user.
func clientAddr(user int32) string {
	u := uint32(user)
	return fmt.Sprintf("10.%d.%d.%d", (u>>16)&255, (u>>8)&255, u&255)
}

// outcome is one measured response, body drained and closed, as the two
// classifiers see it.
type outcome struct {
	resp *http.Response
	// ack is the head of a POST's response body (the store's write ack).
	ack []byte
	// wire is the body size as transferred.
	wire    int64
	elapsed time.Duration
	// postRoll: the request started after the day roll completed.
	postRoll bool
}

// send performs one request as ev's user and keeps the books reads and
// writes share: the warm-up gate, the send/error counters, full-window
// latency and, once a day roll has completed, the epoch-coherence check
// on X-Store-Day. hdr is header name/value pairs. ok is false when there
// is nothing to classify: the request failed (counted) or started inside
// the warm-up window.
func (g *Generator) send(ctx context.Context, st *sendStats, ev model.Event, method, path, body string, hdr ...string) (out outcome, ok bool) {
	rctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	start := time.Now()
	record := !start.Before(g.measureAt)
	if record {
		st.sent.Inc()
	} else {
		st.warmup.Inc()
	}
	req, err := http.NewRequestWithContext(rctx, method, g.cfg.BaseURL+path, strings.NewReader(body))
	var resp *http.Response
	if err == nil {
		req.Header.Set("X-Forwarded-For", clientAddr(ev.User))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err = g.client.Do(req)
	}
	if err != nil {
		if record {
			st.errors.Inc()
		}
		return out, false
	}
	if method == http.MethodPost {
		out.ack, _ = io.ReadAll(io.LimitReader(resp.Body, 4096)) //nolint:errcheck
	}
	rest, _ := io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if !record {
		return out, false
	}
	out.resp, out.wire, out.elapsed = resp, int64(len(out.ack))+rest, time.Since(start)
	st.latency.Observe(int64(out.elapsed))
	// A request launched after the swap finished faces the new snapshot;
	// reads and write acks alike carry the serving epoch, and one that
	// disagrees with the first post-roll answer is a coherence violation.
	if mark := g.rollMark.Load(); mark > 0 && start.UnixNano() >= mark {
		out.postRoll = true
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
			if day, err := strconv.Atoi(resp.Header.Get("X-Store-Day")); err == nil {
				if !g.postRollDay.CompareAndSwap(-1, int64(day)) && g.postRollDay.Load() != int64(day) {
					g.mixedEpoch.Inc()
				}
			}
		}
	}
	return out, true
}

// issue performs one read request and records it under class.
func (g *Generator) issue(ctx context.Context, class string, ev model.Event) {
	cs := g.classes[class]
	path := apiwire.ListPath
	switch class {
	case ClassDetail:
		path = apiwire.AppPath(apiwire.Detail, ev.App)
	case ClassAPK:
		path = apiwire.AppPath(apiwire.APK, ev.App)
	}
	enc := "identity"
	if g.cfg.AcceptGzip {
		enc = "gzip"
	}
	out, ok := g.send(ctx, &cs.sendStats, ev, http.MethodGet, path, "", "Accept-Encoding", enc)
	if !ok {
		return
	}
	if out.resp.Header.Get("Content-Encoding") == "gzip" {
		cs.gzipResponses.Inc()
		cs.gzipBytes.Add(out.wire)
	} else {
		cs.identityBytes.Add(out.wire)
	}
	if out.postRoll {
		cs.postRoll.Observe(int64(out.elapsed))
	} else if g.cfg.DayRollAfter > 0 {
		cs.preRoll.Observe(int64(out.elapsed))
	}
	switch out.resp.StatusCode {
	case http.StatusOK, http.StatusNotModified:
		cs.ok.Inc()
	case http.StatusTooManyRequests:
		cs.rateLimited.Inc()
	default:
		cs.otherStatus.Inc()
	}
}

// issueWrite POSTs one mutation (stars > 0 attaches a rating) and
// classifies the store's verdict.
func (g *Generator) issueWrite(ctx context.Context, endpoint string, kind apiwire.Kind, ev model.Event, stars int) {
	ws := g.writes[endpoint]
	user := strconv.Itoa(int(ev.User))
	body := `{"user":` + user
	if stars > 0 {
		body += `,"rating":` + strconv.Itoa(stars)
	}
	out, ok := g.send(ctx, &ws.sendStats, ev, http.MethodPost, apiwire.AppPath(kind, ev.App), body+"}",
		"Content-Type", "application/json",
		"Idempotency-Key", "lg-u"+user+"-a"+strconv.Itoa(int(ev.App))+"-"+endpoint)
	if !ok {
		return
	}
	switch out.resp.StatusCode {
	case http.StatusOK:
		var ack struct {
			Deduped bool `json:"deduped"`
		}
		if json.Unmarshal(out.ack, &ack) == nil && ack.Deduped {
			ws.deduped.Inc()
		} else {
			ws.accepted.Inc()
		}
	case http.StatusConflict:
		ws.duplicate.Inc()
	case http.StatusTooManyRequests:
		ws.backpressure.Inc()
	default:
		ws.rejected.Inc()
	}
}

// writeHash mixes (seed, user, app) into the 64 bits every write-funnel
// decision derives from — a splitmix64 finalizer, so nearby ids decohere.
func writeHash(seed uint64, user, app int32) uint64 {
	return rng.Mix64(seed ^ uint64(uint32(user))<<32 ^ uint64(uint32(app)))
}

// funnel is what one event adds to its detail GET: nothing, or a download
// and, for a quarter and an eighth of the downloaders, a rating and a
// comment with their star counts.
type funnel struct {
	download, rate, comment bool
	rateStars, commentStars int
}

// funnelFor is the whole write-side decision, a pure function of (seed,
// user, app): mix is the share of events selected. Which worker replays
// the event, when, and in which mode cannot change what gets written
// (DESIGN.md §3b); cmd/bench/ops.go carries a frozen copy.
func funnelFor(seed uint64, mix float64, ev model.Event) funnel {
	h := writeHash(seed, ev.User, ev.App)
	if float64(h>>40)/float64(1<<24) >= mix {
		return funnel{}
	}
	return funnel{
		download: true,
		rate:     h&0x3 == 0, rateStars: int(h>>8)%5 + 1,
		comment: h&0x7 == 0, commentStars: int(h>>16)%5 + 1,
	}
}

// issueEvent replays one workload event: a metadata detail request, plus
// a listing page for every ListEvery-th event, an APK download for every
// APKEvery-th event, and whatever funnelFor adds.
func (g *Generator) issueEvent(ctx context.Context, ev model.Event, n int64) {
	g.issue(ctx, ClassDetail, ev)
	if g.cfg.ListEvery > 0 && n%int64(g.cfg.ListEvery) == 0 {
		g.issue(ctx, ClassList, ev)
	}
	if g.cfg.APKEvery > 0 && n%int64(g.cfg.APKEvery) == 0 {
		g.issue(ctx, ClassAPK, ev)
	}
	f := funnelFor(g.cfg.Seed, g.cfg.WriteMix, ev)
	if f.download {
		g.issueWrite(ctx, WriteDownload, apiwire.Download, ev, 0)
	}
	if f.rate {
		g.issueWrite(ctx, WriteRate, apiwire.Rate, ev, f.rateStars)
	}
	if f.comment {
		g.issueWrite(ctx, WriteComment, apiwire.Comments, ev, f.commentStars)
	}
}

// Run replays src until the workload, the schedule, or ctx ends, then
// returns the Report. Context cancellation is a clean stop, not an error;
// a corrupt source surfaces as an error alongside the partial report. A
// src that is an io.Closer is closed before Run returns, however much of
// it the run consumed.
func (g *Generator) Run(ctx context.Context, src Source) (*Report, error) {
	g.src = src
	if c, ok := src.(io.Closer); ok {
		defer c.Close() //nolint:errcheck // read-only resources: a goroutine, a trace file
	}
	g.startedAt = time.Now()
	g.measureAt = g.startedAt.Add(g.cfg.Warmup)
	g.gcStart = gcstats.Read()
	rctx, cancelRoll := context.WithCancel(ctx)
	var rollWG sync.WaitGroup
	if g.cfg.DayRollAfter > 0 {
		rollWG.Add(1)
		go g.dayRoll(rctx, &rollWG)
	}
	switch g.cfg.Mode {
	case OpenLoop:
		g.runOpen(ctx)
	case ClosedLoop:
		g.runClosed(ctx)
	}
	cancelRoll()
	rollWG.Wait()
	elapsed := time.Since(g.startedAt)
	rep := g.report(elapsed)
	return rep, g.srcErr
}

// dayRoll fires DayRollFn once, DayRollAfter into the measured window,
// and stamps the completion instant that issue() splits latencies on. If
// the run ends first the roll simply never happens (Report says so).
func (g *Generator) dayRoll(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	d := time.Until(g.measureAt.Add(g.cfg.DayRollAfter))
	if d < 0 {
		d = 0
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return
	case <-t.C:
	}
	start := time.Now()
	err := g.cfg.DayRollFn()
	g.rollDur = time.Since(start)
	g.rollErr = err
	g.rollMark.Store(time.Now().UnixNano())
}

// runOpen launches requests on the stage schedule. A timer goroutine per
// request would drift under load, so the pacer computes each arrival's
// absolute time and sleeps to it; launches that would exceed MaxInFlight
// are dropped and counted instead of stalling the schedule.
func (g *Generator) runOpen(ctx context.Context) {
	sem := make(chan struct{}, g.cfg.MaxInFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	var seq int64
	next := time.Now()
	for _, st := range g.cfg.Stages {
		interval := time.Duration(float64(time.Second) / st.RPS)
		stageEnd := next.Add(st.Duration)
		for next.Before(stageEnd) {
			if d := time.Until(next); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			} else if ctx.Err() != nil {
				return
			}
			ev, ok := g.next()
			if !ok {
				return
			}
			n := seq
			seq++
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					g.issueEvent(ctx, ev, n)
				}()
			default:
				g.dropped.Inc()
			}
			next = next.Add(interval)
		}
	}
}

// runClosed runs Users virtual users in lock step with the source.
func (g *Generator) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	for u := 0; u < g.cfg.Users; u++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g.cfg.Seed) + int64(id)))
			var seq int64
			for ctx.Err() == nil {
				ev, ok := g.next()
				if !ok {
					return
				}
				g.issueEvent(ctx, ev, seq)
				seq++
				if g.cfg.Think > 0 {
					d := time.Duration(r.ExpFloat64() * float64(g.cfg.Think))
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
}
