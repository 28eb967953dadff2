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
//   - hedged requests on idempotent GETs: when the primary exceeds the
//     hedge delay a second copy is launched and the first completion
//     wins, converting tail-latency spikes into near-median responses;
//   - response-body validation with re-fetch: the caller's decode/
//     checksum hook runs before a response is accepted, so corrupted or
//     truncated payloads are retried instead of ingested;
//   - per-proxy health scoring (ProxyHealth) that rotates requests
//     around dead fleet nodes and re-probes them after a cooldown.
//
// Each of these is ahead somewhere in EXPERIMENTS.md's "RES" table.
//
// Every recovery action is counted, optionally into a metrics.Registry
// for /metrics exposition, so a chaos run can assert not just that the
// crawl converged but how it fought through.
package resilient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"planetapps/internal/gzipx"
	"planetapps/internal/metrics"
)

// Config controls a Client. Transport, Clock and BaseBackoff default when
// zero; HedgeAfter and ProxyHealth are opt-in. The rest of the retry
// policy is fixed (attemptTimeout, maxBackoff, maxRetryAfter,
// retryAfterBudget).
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

	// HedgeAfter launches a second copy of an attempt that has been in
	// flight this long (0 = hedging off). First completion wins; the
	// loser is canceled. It pays on the tail: a two-day chaos crawl's p99
	// is 191 ms against 258 ms without it under corruption and 166 against
	// 229 ms under slow-loris, and cmd/loadtest's detail p99 under the
	// latency scenario 32-47 ms against 140 ms (EXPERIMENTS.md, "RES").
	HedgeAfter time.Duration
	// MaxHedges bounds extra copies per attempt (default 1).
	MaxHedges int

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
	// attemptTimeout bounds each physical attempt.
	attemptTimeout = 10 * time.Second
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
	cfg   Config
	clock Clock
	rng   *prng

	attempts        *metrics.Counter
	retries         *metrics.Counter
	hedges          *metrics.Counter
	hedgeWins       *metrics.Counter
	invalidBodies   *metrics.Counter
	gzipResponses   *metrics.Counter
	gzipWireBytes   *metrics.Counter
	gzipPlainBytes  *metrics.Counter
	retryAfterWaits *metrics.Counter
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
	c.notModified = counter("resilient_not_modified_total")
	if cfg.Metrics != nil {
		c.latency = cfg.Metrics.Histogram("resilient_request_seconds")
	} else {
		c.latency = metrics.NewHistogram()
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
		LatencyP50MS:      float64(c.latency.Quantile(0.50)) / 1e6,
		LatencyP99MS:      float64(c.latency.Quantile(0.99)) / 1e6,
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
		res, class, err := c.attempt(ctx, method, url, hdr, body, validate)
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

// attempt runs one possibly hedged exchange and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, url string, hdr http.Header, body []byte, validate Validator) (*Result, attemptClass, error) {
	ex := c.exchange(ctx, method, url, hdr, body)
	if ex.err != nil {
		if ctx.Err() != nil {
			return nil, classAbort, ctx.Err()
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
				return res, classRetry, fmt.Errorf("resilient: %s body invalid: %w", url, verr)
			}
		}
		return res, classOK, nil
	case res.Status == http.StatusTooManyRequests, res.Status >= 500:
		return res, classRetry, fmt.Errorf("resilient: %s returned %d", url, res.Status)
	default:
		return res, classPermanent, &PermanentError{Status: res.Status, URL: url}
	}
}

// exchangeResult is one physical attempt's outcome.
type exchangeResult struct {
	res   *Result
	err   error
	hedge bool
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
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
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
		return exchangeResult{err: err, hedge: hedge}
	}
	if pc != nil {
		c.cfg.ProxyHealth.Report(pc.get(), true)
	}
	body, rerr := readBody(resp)
	resp.Body.Close()
	if rerr != nil && ctx.Err() == nil {
		// Mid-body failure: truncation, reset, or a loris running into
		// the attempt timeout.
		return exchangeResult{err: fmt.Errorf("resilient: reading %s: %w", url, rerr), hedge: hedge}
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
