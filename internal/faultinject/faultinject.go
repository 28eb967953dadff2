// Package faultinject turns the polite synthetic appstore into the hostile
// one the paper actually crawled. The paper's collectors fought live
// marketplaces for months — IP blacklisting, regional rate limits, flaky
// endpoints — and routed around them through ~100 PlanetLab proxies
// (Figure 1). Nothing in a clean in-process store exercises those failure
// paths, so this package injects them on purpose: latency spikes, 5xx
// bursts, connection resets, truncated and corrupted bodies, slow-loris
// responses, and rate-limit storms, driven by a declarative Scenario and
// reproducible from a seed.
//
// An Injector wraps either side of the wire with one implementation of
// each fault. RoundTripper injects in front of a client's transport (the
// edge's origin leg); Wrap, which the storeserver and each proxy node
// install, is an adapter that has the handler serve a faulted arrival into
// memory and relays what the same client-side fault makes of it. One
// scenario and seed therefore inject the same bytes from either side, and
// every injected 503 or 429 is the /api/v1 error envelope (WriteEnvelope).
//
// Every injection decision is a pure function of (seed, rule index,
// arrival index): request n under rule r faults iff the rule's phase
// window admits n and a splitmix64-derived uniform draw on
// (seed, r, n) clears the rule's probability. Two runs with the same seed
// see the same fault pattern as a function of arrival order; concurrent
// clients may interleave arrivals differently, but the marginal fault
// process — and therefore any convergence property a resilient client must
// satisfy — is identical.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/metrics"
	"planetapps/internal/rng"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// KindLatency delays the response by Delay plus uniform [0,Jitter).
	KindLatency Kind = iota
	// KindError short-circuits with Status (default 503), rendered by
	// WriteEnvelope, before the request is served.
	KindError
	// KindReset fails the request as a reset connection, the TCP RST /
	// abrupt-EOF failure a blacklisting store produces.
	KindReset
	// KindTruncate serves the real response but cuts the body short after
	// TruncateAt bytes, leaving the declared Content-Length unsatisfied.
	KindTruncate
	// KindCorrupt serves the real response with a span of body bytes
	// zeroed. NUL is never valid JSON, so decode validation always
	// catches it on metadata documents.
	KindCorrupt
	// KindSlowLoris dribbles the response body out in 64-byte chunks,
	// the first 25 of them Delay apart.
	KindSlowLoris
	// KindRateLimit short-circuits with a 429 envelope and a Retry-After.
	KindRateLimit
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindSlowLoris:
		return "slow_loris"
	case KindRateLimit:
		return "rate_limit"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule is one fault stream: which requests it matches, when it fires, and
// what it does. The zero window (Every == 0 and To == 0) means "always
// eligible"; otherwise the rule fires only inside its phase.
type Rule struct {
	// Route limits the rule to request paths containing this substring
	// ("" = every route).
	Route string
	// Kind is the fault to inject.
	Kind Kind
	// Prob is the per-eligible-request injection probability in [0,1].
	Prob float64

	// Every and Span define a repeating phase on the rule's arrival
	// counter: request n is eligible iff n mod Every < Span. This is how
	// bursts and storms are expressed; because every attempt (including a
	// client's retries) advances the counter, a burst always drains and
	// cannot wedge a crawl forever.
	Every, Span int64
	// From and To define a one-shot phase [From, To) on the arrival
	// counter instead (used when Every == 0; To == 0 means no bound).
	From, To int64

	// Status is the response code for KindError (default 503).
	Status int
	// RetryAfter is advertised on KindRateLimit and 503 KindError
	// responses (0 = none).
	RetryAfter time.Duration
	// Delay is the base stall for KindLatency and the per-chunk pacing
	// for KindSlowLoris.
	Delay time.Duration
	// Jitter widens KindLatency by uniform [0, Jitter).
	Jitter time.Duration
	// TruncateAt is how many body bytes KindTruncate lets through
	// (default 12).
	TruncateAt int
	// Node restricts the rule to one fleet node index (see NewForNode);
	// <0 applies to every node.
	Node int
}

// Scenario is a named set of fault rules.
type Scenario struct {
	Name  string
	Desc  string
	Rules []Rule
}

// WriteEnvelope renders every injected 503 and 429, on either side of the
// wire, as the /api/v1 error envelope (apiwire.WriteError): the hint goes
// out as retry_after_ms and as a Retry-After header in ceiling seconds,
// so a hint under a second reaches a client as milliseconds, not as a
// whole second.
func WriteEnvelope(w http.ResponseWriter, status int, retryAfter time.Duration) {
	code := "unavailable"
	if status == http.StatusTooManyRequests {
		code = "rate_limited"
	}
	apiwire.WriteError(w, status, code, "injected fault", retryAfter)
}

// Injector applies one Scenario's fault streams. Create with New (or
// NewForNode for a member of a fleet); an Injector is safe for concurrent
// use and all of its mutable state is atomic.
type Injector struct {
	sc       Scenario
	seed     uint64
	node     int
	counters []atomic.Int64 // per-rule arrival counters

	injected [numKinds]*metrics.Counter
	passed   *metrics.Counter
}

// New builds an injector for sc, counting injections into reg when
// non-nil (metric: faultinject_injected_total{kind=...}).
func New(sc Scenario, seed uint64, reg *metrics.Registry) *Injector {
	return NewForNode(sc, seed, -1, reg)
}

// NewForNode builds an injector for fleet node index node: rules carrying
// a non-negative Node fire only on the matching node, so one scenario can
// describe an asymmetric fleet (a partition that kills specific proxies).
// The node index also perturbs the decision stream, so two nodes running
// the same rule fault different arrival indices.
func NewForNode(sc Scenario, seed uint64, node int, reg *metrics.Registry) *Injector {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	in := &Injector{
		sc:       sc,
		seed:     seed,
		node:     node,
		counters: make([]atomic.Int64, len(sc.Rules)),
		passed:   reg.Counter("faultinject_passed_total"),
	}
	for k := Kind(0); k < numKinds; k++ {
		in.injected[k] = reg.Counter(fmt.Sprintf("faultinject_injected_total{kind=%q}", k.String()))
	}
	return in
}

// InjectedTotal returns the total faults fired across kinds.
func (in *Injector) InjectedTotal() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		t += in.injected[k].Value()
	}
	return t
}

// splitmix64 is the decision hash: a full-avalanche mix of the seed, rule
// index, node, and arrival index.
func splitmix64(x uint64) uint64 { return rng.Mix64(x + 0x9e3779b97f4a7c15) }

// draw returns the uniform [0,1) decision variate for (rule ri, arrival n).
func (in *Injector) draw(ri int, n int64) float64 {
	h := splitmix64(in.seed ^ splitmix64(uint64(ri)+1) ^ splitmix64(uint64(n)+0x5851f42d) ^ splitmix64(uint64(in.node+1)<<32))
	return float64(h>>11) / (1 << 53)
}

// jitterDraw returns an independent uniform variate for latency jitter.
func (in *Injector) jitterDraw(ri int, n int64) float64 {
	h := splitmix64(in.seed ^ 0xda942042e4dd58b5 ^ splitmix64(uint64(ri)+7) ^ splitmix64(uint64(n)))
	return float64(h>>11) / (1 << 53)
}

// decide returns the rule to fire for this request, or -1. At most one
// rule fires per request: the first matching rule whose draw clears wins,
// so scenario authors order rules by precedence.
func (in *Injector) decide(path string) (ri int, n int64) {
	for i := range in.sc.Rules {
		rl := &in.sc.Rules[i]
		if rl.Node >= 0 && in.node >= 0 && rl.Node != in.node {
			continue
		}
		if rl.Route != "" && !containsPath(path, rl.Route) {
			continue
		}
		n := in.counters[i].Add(1) - 1
		if rl.Every > 0 {
			if n%rl.Every >= rl.Span {
				continue
			}
		} else if n < rl.From || (rl.To > 0 && n >= rl.To) {
			continue
		}
		if rl.Prob < 1 && in.draw(i, n) >= rl.Prob {
			continue
		}
		return i, n
	}
	return -1, 0
}

func containsPath(path, sub string) bool { return strings.Contains(path, sub) }

// Wrap returns next with sc's faults injected in front of it, through the
// same inject RoundTripper runs: Wrap is only the adapter between a
// handler and a transport. An arrival no rule fires on goes straight to
// next. A faulted one has next serve into memory, passes that exchange
// through inject, and relays what comes out — status, headers, then the
// body as it reads, flushed read by read, so a slow-loris body dribbles
// onto the wire. A reset, or a body read that fails mid-stream, closes
// the connection under whatever Content-Length the handler declared.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	serve := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		rec := &recorder{header: http.Header{}}
		next.ServeHTTP(rec, req)
		return rec.response(req), nil
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri, n := in.decide(r.URL.Path)
		if ri < 0 {
			in.passed.Inc()
			next.ServeHTTP(w, r)
			return
		}
		resp, err := in.inject(ri, n, r, serve)
		if err != nil {
			resetConn(w)
			return
		}
		defer resp.Body.Close()
		h := w.Header()
		for k, vs := range resp.Header {
			h[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 32<<10)
		for {
			k, err := resp.Body.Read(buf)
			if k > 0 {
				if _, werr := w.Write(buf[:k]); werr != nil {
					return // client gone
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				// Closing the connection short of the declared length is
				// what makes the client see an unexpected EOF rather than
				// a clean short document.
				resetConn(w)
				return
			}
		}
	})
}

// resetConn abruptly closes the underlying connection, best effort (a
// recorder or non-hijackable writer just sees nothing written, which a
// client still observes as an empty/invalid response).
func resetConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				// SO_LINGER 0 turns Close into a RST rather than FIN —
				// the genuine "connection reset by peer".
				tc.SetLinger(0) //nolint:errcheck
			}
			conn.Close()
		}
	}
}

// RoundTripper returns a client-side middleware injecting sc's faults in
// front of next (http.DefaultTransport when nil).
func (in *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ri, n := in.decide(req.URL.Path)
		if ri < 0 {
			in.passed.Inc()
			return next.RoundTrip(req)
		}
		return in.inject(ri, n, req, next)
	})
}

// inject runs req, arrival n under rule ri, through the rule's fault: the
// one implementation of every Kind, whichever side of the wire armed it.
// KindLatency stalls before dispatch; KindError and KindRateLimit answer
// with WriteEnvelope's bytes without dispatching; KindReset fails as a
// reset connection; the body kinds rewrite the real response's body as it
// is read.
func (in *Injector) inject(ri int, n int64, req *http.Request, next http.RoundTripper) (*http.Response, error) {
	rl := &in.sc.Rules[ri]
	in.injected[rl.Kind].Inc()
	switch rl.Kind {
	case KindLatency:
		d := rl.Delay + time.Duration(in.jitterDraw(ri, n)*float64(rl.Jitter))
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d):
		}
	case KindError:
		status := rl.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		return syntheticResponse(req, status, rl.RetryAfter), nil
	case KindRateLimit:
		return syntheticResponse(req, http.StatusTooManyRequests, rl.RetryAfter), nil
	case KindReset:
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: errors.New("faultinject: connection reset by peer")}
	}
	resp, err := next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch rl.Kind {
	case KindTruncate:
		at := rl.TruncateAt
		if at <= 0 {
			at = 12
		}
		resp.Body = &truncatedBody{ReadCloser: resp.Body, budget: at}
	case KindCorrupt:
		resp.Body = &corruptedBody{ReadCloser: resp.Body}
	case KindSlowLoris:
		resp.Body = &slowBody{ReadCloser: resp.Body, delay: rl.Delay}
	}
	return resp, nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// syntheticResponse answers req with status without dispatching it,
// rendered by WriteEnvelope.
func syntheticResponse(req *http.Request, status int, retryAfter time.Duration) *http.Response {
	rec := &recorder{header: http.Header{}}
	WriteEnvelope(rec, status, retryAfter)
	return rec.response(req)
}

// recorder is the http.ResponseWriter a response is rendered into in
// memory: a synthesized error, or the handler a faulted arrival at Wrap
// runs.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (rec *recorder) Header() http.Header { return rec.header }

func (rec *recorder) WriteHeader(status int) {
	if rec.status == 0 {
		rec.status = status
	}
}

func (rec *recorder) Write(p []byte) (int, error) {
	rec.WriteHeader(http.StatusOK)
	return rec.body.Write(p)
}

// response is what rec holds, as the answer to req.
func (rec *recorder) response(req *http.Request) *http.Response {
	rec.WriteHeader(http.StatusOK)
	return &http.Response{
		StatusCode:    rec.status,
		Status:        fmt.Sprintf("%d %s", rec.status, http.StatusText(rec.status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}
}

// truncatedBody yields budget bytes, then fails as a connection cut short.
type truncatedBody struct {
	io.ReadCloser
	budget int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.budget <= 0 {
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: errors.New("faultinject: truncated body")}
	}
	if len(p) > t.budget {
		p = p[:t.budget]
	}
	n, err := t.ReadCloser.Read(p)
	t.budget -= n
	return n, err
}

// corruptedBody zeroes a short span early in the stream. NUL bytes are
// illegal anywhere in JSON — inside or outside string literals — so a
// decode-validating client detects the damage deterministically.
type corruptedBody struct {
	io.ReadCloser
	read int
}

func (c *corruptedBody) Read(p []byte) (int, error) {
	const corruptAt, corruptLen = 2, 4
	n, err := c.ReadCloser.Read(p)
	for i := 0; i < n; i++ {
		if pos := c.read + i; pos >= corruptAt && pos < corruptAt+corruptLen {
			p[i] = 0
		}
	}
	c.read += n
	return n, err
}

// slowBody hands the body out 64 bytes a read, sleeping delay before each
// of the first 24 reads after the first, so one injection stalls a reader
// by at most 24 delays.
type slowBody struct {
	io.ReadCloser
	delay time.Duration
	reads int
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.reads > 0 && s.reads <= 24 && s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.reads++
	if len(p) > 64 {
		p = p[:64]
	}
	return s.ReadCloser.Read(p)
}
