// Package resilient is the client-side answer to internal/faultinject:
// an HTTP client hardened against the hostility the paper's crawlers met
// in the wild — GETs for the crawl, idempotency-keyed POSTs for the
// load generator's write funnel. One Client bundles the defenses a
// months-long crawl needs to converge through flaky endpoints, rate
// limits, and dying proxies:
//
//   - full-jitter exponential backoff that honors the server's
//     Retry-After, in both its header form and the /api/v1 error
//     envelope's millisecond-precision retry_after_ms;
//   - a per-host circuit breaker with half-open probing, so a dead host
//     is probed politely instead of hammered;
//   - hedged requests on idempotent GETs: when the primary exceeds the
//     hedge delay a second copy is launched and the first completion
//     wins, converting tail-latency spikes into near-median responses;
//   - AIMD adaptive concurrency: 429s and timeouts multiplicatively
//     shrink the admission window, successes grow it back additively;
//   - response-body validation with re-fetch: the caller's decode/
//     checksum hook runs before a response is accepted, so corrupted or
//     truncated payloads are retried instead of ingested;
//   - per-proxy health scoring (ProxyHealth) that rotates requests
//     around dead fleet nodes and re-probes them after a cooldown.
//
// Every recovery action is counted, optionally into a metrics.Registry
// for /metrics exposition, so a chaos run can assert not just that the
// crawl converged but how it fought through.
package resilient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"planetapps/internal/gzipx"
	"planetapps/internal/metrics"
)

// Config controls a Client. Transport, Clock, BaseBackoff and
// AttemptTimeout default when zero; HedgeAfter, Breaker, AIMD and
// ProxyHealth are opt-in, which is what the "naive client" baseline in the
// chaos benchmark uses. The rest of the retry policy is fixed (maxBackoff,
// maxRetryAfter, retryAfterBudget, the breaker's and AIMD's constants).
type Config struct {
	// Transport performs the physical exchanges (default: a fresh
	// http.Transport).
	Transport http.RoundTripper
	// Clock abstracts time (default wall clock; tests inject fakes).
	Clock Clock
	// Seed drives backoff jitter.
	Seed uint64

	// MaxRetries is the per-Get budget of unhinted retries beyond the
	// first attempt: 0 is one attempt, a negative budget is 0.
	MaxRetries int
	// BaseBackoff seeds the full-jitter exponential schedule
	// (default 20ms).
	BaseBackoff time.Duration
	// AttemptTimeout bounds each physical attempt (default 10s).
	AttemptTimeout time.Duration

	// HedgeAfter launches a second copy of an attempt that has been in
	// flight this long (0 = hedging off). First completion wins; the
	// loser is canceled.
	HedgeAfter time.Duration
	// MaxHedges bounds extra copies per attempt (default 1).
	MaxHedges int

	// Breaker enables the per-host circuit breaker.
	Breaker bool
	// AIMD enables adaptive concurrency admission with this ceiling on
	// concurrent attempts (0 = off).
	AIMD int
	// ProxyHealth enables per-proxy health attribution; install its
	// ProxyFunc on the Transport.
	ProxyHealth *ProxyHealth

	// AcceptGzip makes every attempt ask for gzip explicitly
	// (Accept-Encoding: gzip, which also switches off the Go transport's
	// invisible decompression) and inflates compressed responses inside
	// the retry loop: a damaged gzip stream (bad CRC, truncated deflate)
	// is counted as an invalid body and re-fetched, exactly like damaged
	// JSON. Callers always see identity bytes; the wire carried less.
	AcceptGzip bool
	// PreAttempt runs before every physical attempt (hedges included) —
	// the crawler's politeness rate limiter plugs in here so retries and
	// hedges spend the same token budget as first attempts.
	PreAttempt func(context.Context) error
	// UserAgent is set on every request when non-empty.
	UserAgent string
	// Metrics mirrors the recovery counters into a registry (optional).
	Metrics *metrics.Registry
}

// The retry policy's fixed bounds.
const (
	// maxBackoff caps a single backoff sleep.
	maxBackoff = 2 * time.Second
	// maxRetryAfter caps how long a server-supplied Retry-After is
	// honored — a hostile or buggy server must not be able to park the
	// crawler for minutes.
	maxRetryAfter = 5 * time.Second
	// retryAfterBudget bounds the *cumulative* time one Get spends
	// honoring server-supplied Retry-After hints. Hinted retries do not
	// consume MaxRetries: a server saying "come back in 5ms" is directing
	// traffic, not failing, and a deep arrival-gated 429/503 storm can need
	// far more round-trips than genuine failures warrant — so the two
	// budgets are separate currencies (count for failures, wall time for
	// obedience).
	retryAfterBudget = 20 * time.Second
)

// Result is one validated HTTP response.
type Result struct {
	Status int
	Header http.Header
	Body   []byte
}

// Validator inspects a transport-successful response (2xx or 304) before
// the Client accepts it. Returning an error marks the payload damaged and
// triggers a re-fetch — this is where decode/checksum validation lives.
type Validator func(*Result) error

// PermanentError is a definitive non-retryable HTTP answer (4xx other
// than 429).
type PermanentError struct {
	Status int
	URL    string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("resilient: %s returned %d", e.URL, e.Status)
}

// Client is a hardened GET client. Create with New; safe for concurrent
// use.
type Client struct {
	cfg      Config
	clock    Clock
	rng      *prng
	breakers *breakerSet
	adm      *aimd

	attempts        *metrics.Counter
	retries         *metrics.Counter
	hedges          *metrics.Counter
	hedgeWins       *metrics.Counter
	invalidBodies   *metrics.Counter
	gzipResponses   *metrics.Counter
	gzipWireBytes   *metrics.Counter
	gzipPlainBytes  *metrics.Counter
	retryAfterWaits *metrics.Counter
	breakerWaits    *metrics.Counter
	breakerOpens    *metrics.Counter
	notModified     *metrics.Counter
	latency         *metrics.Histogram
}

// New validates cfg and builds a Client.
func New(cfg Config) *Client {
	if cfg.Transport == nil {
		cfg.Transport = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 20 * time.Millisecond
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.HedgeAfter > 0 && cfg.MaxHedges <= 0 {
		cfg.MaxHedges = 1
	}
	c := &Client{cfg: cfg, clock: cfg.Clock, rng: newPRNG(cfg.Seed)}
	counter := func(name string) *metrics.Counter {
		if cfg.Metrics != nil {
			return cfg.Metrics.Counter(name)
		}
		return &metrics.Counter{}
	}
	c.attempts = counter("resilient_attempts_total")
	c.retries = counter("resilient_retries_total")
	c.hedges = counter("resilient_hedges_total")
	c.hedgeWins = counter("resilient_hedge_wins_total")
	c.invalidBodies = counter("resilient_invalid_body_total")
	c.gzipResponses = counter("resilient_gzip_responses_total")
	c.gzipWireBytes = counter("resilient_gzip_wire_bytes_total")
	c.gzipPlainBytes = counter("resilient_gzip_inflated_bytes_total")
	c.retryAfterWaits = counter("resilient_retry_after_waits_total")
	c.breakerWaits = counter("resilient_breaker_waits_total")
	c.breakerOpens = counter("resilient_breaker_opens_total")
	c.notModified = counter("resilient_not_modified_total")
	if cfg.Metrics != nil {
		c.latency = cfg.Metrics.Histogram("resilient_request_seconds")
	} else {
		c.latency = metrics.NewHistogram()
	}
	if cfg.Breaker {
		c.breakers = newBreakerSet(cfg.Clock, c.breakerOpens)
	}
	if cfg.AIMD > 0 {
		c.adm = newAIMD(cfg.AIMD)
	}
	return c
}

// Stats is a point-in-time summary of the client's recovery activity.
type Stats struct {
	Attempts, Retries int64
	Hedges, HedgeWins int64
	InvalidBodies     int64
	GzipResponses     int64
	GzipWireBytes     int64
	GzipInflatedBytes int64
	RetryAfterWaits   int64
	BreakerWaits      int64
	BreakerOpens      int64
	AIMDDecreases     int64
	AIMDLimit         float64
	ProxyDemotions    int64
	LatencyP50MS      float64
	LatencyP99MS      float64
}

// Stats snapshots the recovery counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Attempts:          c.attempts.Value(),
		Retries:           c.retries.Value(),
		Hedges:            c.hedges.Value(),
		HedgeWins:         c.hedgeWins.Value(),
		InvalidBodies:     c.invalidBodies.Value(),
		GzipResponses:     c.gzipResponses.Value(),
		GzipWireBytes:     c.gzipWireBytes.Value(),
		GzipInflatedBytes: c.gzipPlainBytes.Value(),
		RetryAfterWaits:   c.retryAfterWaits.Value(),
		BreakerWaits:      c.breakerWaits.Value(),
		BreakerOpens:      c.breakerOpens.Value(),
		LatencyP50MS:      float64(c.latency.Quantile(0.50)) / 1e6,
		LatencyP99MS:      float64(c.latency.Quantile(0.99)) / 1e6,
	}
	if c.adm != nil {
		s.AIMDDecreases = c.adm.Decreases()
		s.AIMDLimit = c.adm.Limit()
	}
	if c.cfg.ProxyHealth != nil {
		s.ProxyDemotions = c.cfg.ProxyHealth.Demotions()
	}
	return s
}

// attemptClass is the retry-loop verdict for one attempt.
type attemptClass uint8

const (
	classOK attemptClass = iota
	classRetry
	classPressure // retryable AND an overload signal (429/timeout)
	classPermanent
	classAbort // context ended
)

// Get fetches url with the full resilience stack. hdr (optional) is
// merged into the request; validate (optional) runs on 2xx/304 responses
// before acceptance. On permanent errors and exhausted retries, the last
// response (when one exists) is returned alongside the error so callers
// can inspect the final status.
func (c *Client) Get(ctx context.Context, url string, hdr http.Header, validate Validator) (*Result, error) {
	return c.do(ctx, http.MethodGet, url, hdr, nil, validate)
}

// Post sends body to url through the same resilience stack as Get. The
// body is held as bytes so retries and hedges replay it verbatim. Callers
// MUST make the request idempotent on the server side — the store's write
// endpoints take an Idempotency-Key header in hdr — because the stack
// will happily re-send it after an ambiguous transport failure.
func (c *Client) Post(ctx context.Context, url string, hdr http.Header, body []byte, validate Validator) (*Result, error) {
	return c.do(ctx, http.MethodPost, url, hdr, body, validate)
}

// do is the shared retry loop behind Get and Post.
func (c *Client) do(ctx context.Context, method, url string, hdr http.Header, body []byte, validate Validator) (*Result, error) {
	start := c.clock.Now()
	defer func() { c.latency.Observe(int64(c.clock.Now().Sub(start))) }()

	host := hostKey(url)
	var lastErr error
	var lastRes *Result
	var hint, hintWaited time.Duration
	failures := 0 // non-hinted retryable outcomes, spent against MaxRetries
	for total := 0; ; total++ {
		if total > 0 {
			c.retries.Inc()
			var d time.Duration
			if hint > 0 {
				// The server said exactly when to come back; believe it
				// (capped) instead of guessing with exponential backoff —
				// a deep 429/503 storm then drains at the server's pace,
				// not at maxBackoff per attempt.
				d = min(hint, maxRetryAfter)
				hintWaited += d
				c.retryAfterWaits.Inc()
			} else {
				d = fullJitter(failures-1, c.cfg.BaseBackoff, c.rng)
			}
			if err := c.clock.Sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		res, class, err := c.attempt(ctx, host, method, url, hdr, body, validate)
		switch class {
		case classOK:
			return res, nil
		case classPermanent:
			return res, err
		case classAbort:
			return nil, err
		default:
			lastErr, hint = err, 0
			if res != nil {
				lastRes = res
				hint = retryAfterHint(res.Status, res.Header, res.Body, c.clock.Now())
			}
			// Hinted rejections spend wall time, everything else spends
			// the failure count — separate budgets, because a server
			// directing traffic ("come back at T") and a server failing
			// are different conditions.
			if hint > 0 {
				if hintWaited >= retryAfterBudget {
					return lastRes, fmt.Errorf("resilient: giving up on %s after %v of server-directed waiting (%d attempts): %w",
						url, hintWaited, total+1, lastErr)
				}
			} else {
				failures++
				if failures > c.cfg.MaxRetries {
					return lastRes, fmt.Errorf("resilient: giving up on %s after %d attempts: %w", url, total+1, lastErr)
				}
			}
		}
	}
}

// hostKey derives the circuit-breaker / health key for a URL: host AND
// port. A fleet of shards co-located on one address ("127.0.0.1:9001",
// "127.0.0.1:9002", ...) must hold independent breakers — one sick shard
// tripping the whole fleet's breaker would turn a single-node failure
// into a full-fleet outage from the client's point of view. Elided
// default ports are normalized (http → :80, https → :443) so
// "http://host" and "http://host:80" share one breaker, as they share one
// listener. Unparseable URLs key on the raw string.
func hostKey(url string) string {
	u, err := neturl.Parse(url)
	if err != nil || u.Host == "" {
		return url
	}
	host := u.Host
	if strings.LastIndexByte(host, ':') <= strings.LastIndexByte(host, ']') {
		// No explicit port (the ']' guard keeps bracketed IPv6 literals,
		// whose colons are address bytes, out of the port check).
		switch u.Scheme {
		case "https":
			host += ":443"
		default:
			host += ":80"
		}
	}
	return host
}

// attempt runs one admission-gated, breaker-guarded, possibly hedged
// exchange and classifies the outcome.
func (c *Client) attempt(ctx context.Context, host, method, url string, hdr http.Header, body []byte, validate Validator) (*Result, attemptClass, error) {
	if c.adm != nil {
		if err := c.adm.acquire(ctx); err != nil {
			return nil, classAbort, err
		}
	}
	success, pressure := false, false
	defer func() {
		if c.adm != nil {
			c.adm.release(success, pressure)
		}
	}()

	var tk *Token
	if c.breakers != nil {
		b := c.breakers.forHost(host)
		for {
			t, retryIn, ok := b.Try()
			if ok {
				tk = t
				break
			}
			// Open circuit: wait out the cooldown rather than failing the
			// crawl — convergence beats fast failure here.
			c.breakerWaits.Inc()
			if err := c.clock.Sleep(ctx, retryIn); err != nil {
				return nil, classAbort, err
			}
		}
	}

	ex := c.exchange(ctx, method, url, hdr, body)
	if ex.err != nil {
		if ctx.Err() != nil {
			tk.Cancel()
			return nil, classAbort, ctx.Err()
		}
		tk.Failure()
		if ex.timeout {
			pressure = true
			return nil, classPressure, ex.err
		}
		return nil, classRetry, ex.err
	}
	res := ex.res
	switch {
	case res.Status >= 200 && res.Status < 300, res.Status == http.StatusNotModified:
		if res.Status == http.StatusNotModified {
			c.notModified.Inc()
		}
		if c.cfg.AcceptGzip && res.Status != http.StatusNotModified &&
			res.Header.Get("Content-Encoding") == "gzip" {
			plain, derr := gzipx.Decompress(res.Body)
			if derr != nil {
				// Same treatment as damaged JSON: a corrupted compressed
				// stream is an invalid body and the attempt retries.
				c.invalidBodies.Inc()
				tk.Failure()
				return res, classRetry, fmt.Errorf("resilient: %s compressed body damaged: %w", url, derr)
			}
			c.gzipResponses.Inc()
			c.gzipWireBytes.Add(int64(len(res.Body)))
			c.gzipPlainBytes.Add(int64(len(plain)))
			// Downstream consumers (decoders, the crawl database) see the
			// document as if it had traveled identity-encoded.
			res.Body = plain
			res.Header.Del("Content-Encoding")
			res.Header.Set("Content-Length", strconv.Itoa(len(plain)))
		}
		if validate != nil {
			if verr := validate(res); verr != nil {
				c.invalidBodies.Inc()
				tk.Failure()
				return res, classRetry, fmt.Errorf("resilient: %s body invalid: %w", url, verr)
			}
		}
		tk.Success()
		success = true
		return res, classOK, nil
	case res.Status == http.StatusTooManyRequests:
		// Being throttled is the origin working as designed, not host
		// sickness: neutral for the breaker, pressure for AIMD.
		tk.Cancel()
		pressure = true
		return res, classPressure, fmt.Errorf("resilient: %s returned 429", url)
	case res.Status >= 500:
		tk.Failure()
		return res, classRetry, fmt.Errorf("resilient: %s returned %d", url, res.Status)
	default:
		tk.Success()
		success = true
		return res, classPermanent, &PermanentError{Status: res.Status, URL: url}
	}
}

// exchangeResult is one physical attempt's outcome.
type exchangeResult struct {
	res     *Result
	err     error
	timeout bool
	hedge   bool
}

// exchange performs the physical attempt, hedging when configured: if the
// primary has not completed within HedgeAfter, up to MaxHedges copies are
// launched and the first success wins (losers are canceled). Transport
// errors hold out for a slower sibling; only when every copy has failed
// does the attempt fail.
func (c *Client) exchange(ctx context.Context, method, url string, hdr http.Header, body []byte) exchangeResult {
	if c.cfg.HedgeAfter <= 0 {
		return c.roundTrip(ctx, method, url, hdr, body, false)
	}
	exCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	results := make(chan exchangeResult, 1+c.cfg.MaxHedges)
	launch := func(hedge bool) {
		go func() {
			r := c.roundTrip(exCtx, method, url, hdr, body, hedge)
			results <- r
		}()
	}
	launch(false)
	outstanding, hedgesLeft := 1, c.cfg.MaxHedges
	var firstErr *exchangeResult
	hedgeTimer := time.NewTimer(c.cfg.HedgeAfter)
	defer hedgeTimer.Stop()
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.hedge {
					c.hedgeWins.Inc()
				}
				return r
			}
			if firstErr == nil {
				firstErr = &r
			}
			if outstanding == 0 && hedgesLeft == 0 {
				return *firstErr
			}
			if outstanding == 0 {
				// Primary died before the hedge delay elapsed: hedge
				// immediately rather than waiting out the timer.
				c.hedges.Inc()
				hedgesLeft--
				launch(true)
				outstanding++
			}
		case <-hedgeTimer.C:
			if hedgesLeft > 0 {
				c.hedges.Inc()
				hedgesLeft--
				launch(true)
				outstanding++
				// Stagger further copies one interval apart.
				hedgeTimer.Reset(c.cfg.HedgeAfter)
			}
		case <-ctx.Done():
			return exchangeResult{err: ctx.Err()}
		}
	}
}

// roundTrip performs one wire exchange, reading the body fully so the
// response is self-contained (hedging and validation both need replayable
// bytes).
func (c *Client) roundTrip(ctx context.Context, method, url string, hdr http.Header, body []byte, hedge bool) exchangeResult {
	if c.cfg.PreAttempt != nil {
		if err := c.cfg.PreAttempt(ctx); err != nil {
			return exchangeResult{err: err, hedge: hedge}
		}
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var pc *proxyChoice
	if c.cfg.ProxyHealth != nil {
		actx, pc = withChoice(actx)
	}
	var rd io.Reader
	if body != nil {
		// A fresh reader per physical attempt: hedges and retries replay
		// the same bytes from the start.
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return exchangeResult{err: err, hedge: hedge}
	}
	for k, vv := range hdr {
		for _, v := range vv {
			req.Header.Add(k, v)
		}
	}
	if c.cfg.UserAgent != "" {
		req.Header.Set("User-Agent", c.cfg.UserAgent)
	}
	if c.cfg.AcceptGzip && req.Header.Get("Accept-Encoding") == "" {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	c.attempts.Inc()
	resp, err := c.cfg.Transport.RoundTrip(req)
	if err != nil {
		// Attribute transport failures to the proxy node that carried the
		// request — unless this attempt was canceled (a lost hedge race
		// is not the node's fault).
		if pc != nil && ctx.Err() == nil {
			c.cfg.ProxyHealth.Report(pc.get(), false)
		}
		return exchangeResult{err: err, timeout: errors.Is(err, context.DeadlineExceeded) || actx.Err() != nil && ctx.Err() == nil, hedge: hedge}
	}
	if pc != nil {
		c.cfg.ProxyHealth.Report(pc.get(), true)
	}
	body, rerr := readBody(resp)
	resp.Body.Close()
	if rerr != nil && ctx.Err() == nil {
		// Mid-body failure: truncation, reset, or a loris running into
		// the attempt timeout.
		return exchangeResult{err: fmt.Errorf("resilient: reading %s: %w", url, rerr), timeout: actx.Err() != nil, hedge: hedge}
	}
	if ctx.Err() != nil && rerr != nil {
		return exchangeResult{err: ctx.Err(), hedge: hedge}
	}
	return exchangeResult{res: &Result{Status: resp.StatusCode, Header: resp.Header, Body: body}, hedge: hedge}
}

// maxDeclaredBody is the largest Content-Length readBody allocates up front;
// a longer body is taken as it arrives, so a header alone cannot claim memory.
const maxDeclaredBody = 4 << 20

// readBody reads resp's body into a slice with no spare capacity. Callers
// keep what Get returns — the edge caches it and charges its byte budget
// len(body) — and io.ReadAll starts every body in a 512-byte buffer, which
// held a 190-byte detail document in 2.7 times the bytes accounted for it.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxDeclaredBody {
		body, err := io.ReadAll(resp.Body)
		if len(body) < cap(body) {
			body = append(make([]byte, 0, len(body)), body...)
		}
		return body, err
	}
	body := make([]byte, n)
	got, err := io.ReadFull(resp.Body, body)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // nothing at all of a declared body
	}
	if err != nil {
		return body[:got], err
	}
	// The document is the declared length. Reading on to the end of the
	// body is what lets the transport see it finished and keep the
	// connection.
	_, err = io.Copy(io.Discard, resp.Body)
	return body, err
}

// Transport adapts the client to http.RoundTripper for consumers that
// speak plain net/http (the load generator). GETs — and POSTs carrying an
// Idempotency-Key, which the store's write endpoints dedup, making them
// retry-safe — run the full resilience stack; anything else passes
// straight to the base transport. When the stack ends with a definitive
// HTTP answer (permanent 4xx, or a final 429/5xx after exhausted retries)
// the answer is surfaced as a normal response, so the caller's status
// accounting keeps working.
func (c *Client) Transport() http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		var res *Result
		var err error
		switch {
		case req.Method == http.MethodGet:
			res, err = c.Get(req.Context(), req.URL.String(), req.Header, nil)
		case req.Method == http.MethodPost && req.Header.Get("Idempotency-Key") != "":
			var body []byte
			if req.Body != nil {
				body, err = io.ReadAll(req.Body)
				req.Body.Close() //nolint:errcheck
				if err != nil {
					return nil, err
				}
			}
			res, err = c.Post(req.Context(), req.URL.String(), req.Header, body, nil)
		default:
			return c.cfg.Transport.RoundTrip(req)
		}
		if res == nil {
			return nil, err
		}
		return &http.Response{
			StatusCode:    res.Status,
			Status:        fmt.Sprintf("%d %s", res.Status, http.StatusText(res.Status)),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        res.Header,
			Body:          io.NopCloser(bytes.NewReader(res.Body)),
			ContentLength: int64(len(res.Body)),
			Request:       req,
		}, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
