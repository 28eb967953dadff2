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
// An Injector wraps either side of the wire: Wrap produces an
// http.Handler middleware (the storeserver and each proxy node install
// one), RoundTripper produces a client-side middleware for transport-level
// faults. Every injection decision is a pure function of (seed, rule
// index, arrival index): request n under rule r faults iff the rule's
// phase window admits n and a splitmix64-derived uniform draw on
// (seed, r, n) clears the rule's probability. Two runs with the same seed
// see the same fault pattern as a function of arrival order; concurrent
// clients may interleave arrivals differently, but the marginal fault
// process — and therefore any convergence property a resilient client must
// satisfy — is identical.
package faultinject

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"planetapps/internal/metrics"
	"planetapps/internal/rng"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// KindLatency delays the response by Delay plus uniform [0,Jitter).
	KindLatency Kind = iota
	// KindError short-circuits with Status (default 503) before the
	// wrapped handler runs.
	KindError
	// KindReset hijacks the connection and closes it mid-request, the
	// TCP RST / abrupt-EOF failure a blacklisting store produces.
	KindReset
	// KindTruncate serves the real response but cuts the body short after
	// TruncateAt bytes, leaving the declared Content-Length unsatisfied.
	KindTruncate
	// KindCorrupt serves the real response with a span of body bytes
	// zeroed. NUL is never valid JSON, so decode validation always
	// catches it on metadata documents.
	KindCorrupt
	// KindSlowLoris dribbles the response body out in tiny flushed
	// chunks with Delay between them.
	KindSlowLoris
	// KindRateLimit short-circuits with 429 and a Retry-After.
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

// ErrorWriter renders an injected error response. The default writes
// plain-text http.Error bodies; servers with structured error surfaces
// (the storeserver's /api/v1 envelope) install their own.
type ErrorWriter func(w http.ResponseWriter, r *http.Request, status int, retryAfter time.Duration)

func defaultErrorWriter(w http.ResponseWriter, r *http.Request, status int, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, "fault injected: "+http.StatusText(status), status)
}

// Injector applies one Scenario's fault streams. Create with New (or
// NewForNode for a member of a fleet); an Injector is safe for concurrent
// use and all of its mutable state is atomic.
type Injector struct {
	sc       Scenario
	seed     uint64
	node     int
	errW     ErrorWriter
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
	in := &Injector{
		sc:       sc,
		seed:     seed,
		node:     node,
		errW:     defaultErrorWriter,
		counters: make([]atomic.Int64, len(sc.Rules)),
	}
	for k := Kind(0); k < numKinds; k++ {
		if reg != nil {
			in.injected[k] = reg.Counter(fmt.Sprintf("faultinject_injected_total{kind=%q}", k.String()))
		} else {
			in.injected[k] = &metrics.Counter{}
		}
	}
	if reg != nil {
		in.passed = reg.Counter("faultinject_passed_total")
	} else {
		in.passed = &metrics.Counter{}
	}
	return in
}

// SetErrorWriter installs a custom renderer for injected error responses
// (KindError, KindRateLimit). Must be called before the injector serves.
func (in *Injector) SetErrorWriter(w ErrorWriter) { in.errW = w }

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

// Wrap returns next with sc's faults injected in front of (and, for the
// body-mangling kinds, around) it.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri, n := in.decide(r.URL.Path)
		if ri < 0 {
			in.passed.Inc()
			next.ServeHTTP(w, r)
			return
		}
		rl := &in.sc.Rules[ri]
		in.injected[rl.Kind].Inc()
		switch rl.Kind {
		case KindLatency:
			d := rl.Delay + time.Duration(in.jitterDraw(ri, n)*float64(rl.Jitter))
			select {
			case <-r.Context().Done():
			case <-time.After(d):
			}
			next.ServeHTTP(w, r)
		case KindError:
			status := rl.Status
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			in.errW(w, r, status, rl.RetryAfter)
		case KindRateLimit:
			in.errW(w, r, http.StatusTooManyRequests, rl.RetryAfter)
		case KindReset:
			resetConn(w)
		case KindTruncate:
			at := rl.TruncateAt
			if at <= 0 {
				at = 12
			}
			next.ServeHTTP(&truncateWriter{ResponseWriter: w, budget: at}, r)
			// Closing the connection under the handler's declared
			// Content-Length is what makes the client see an unexpected
			// EOF rather than a clean short document.
			resetConn(w)
		case KindCorrupt:
			next.ServeHTTP(&corruptWriter{ResponseWriter: w}, r)
		case KindSlowLoris:
			lw := &lorisWriter{w: w, delay: rl.Delay, chunk: 64}
			next.ServeHTTP(lw, r)
			lw.flushTail()
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

// truncateWriter forwards at most budget body bytes and swallows the rest.
type truncateWriter struct {
	http.ResponseWriter
	budget int
}

func (t *truncateWriter) Write(p []byte) (int, error) {
	if t.budget <= 0 {
		return len(p), nil // pretend success so the handler completes
	}
	n := len(p)
	if n > t.budget {
		n = t.budget
	}
	if _, err := t.ResponseWriter.Write(p[:n]); err != nil {
		return 0, err
	}
	t.budget -= n
	return len(p), nil
}

// corruptWriter zeroes a short span early in the body. NUL bytes are
// illegal anywhere in JSON — inside or outside string literals — so a
// decode-validating client detects the damage deterministically.
type corruptWriter struct {
	http.ResponseWriter
	written int
}

func (c *corruptWriter) Write(p []byte) (int, error) {
	const corruptAt, corruptLen = 2, 4
	end := c.written + len(p)
	if c.written <= corruptAt+corruptLen && end > corruptAt {
		q := append([]byte(nil), p...)
		for i := range q {
			if pos := c.written + i; pos >= corruptAt && pos < corruptAt+corruptLen {
				q[i] = 0
			}
		}
		p = q
	}
	n, err := c.ResponseWriter.Write(p)
	c.written += n
	return n, err
}

// lorisWriter buffers the response and dribbles it out in small flushed
// chunks with a delay between each — the slow-loris read experience.
type lorisWriter struct {
	w     http.ResponseWriter
	buf   bytes.Buffer
	code  int
	delay time.Duration
	chunk int
}

func (l *lorisWriter) Header() http.Header { return l.w.Header() }

func (l *lorisWriter) WriteHeader(code int) { l.code = code }

func (l *lorisWriter) Write(p []byte) (int, error) { return l.buf.Write(p) }

// flushTail replays the buffered response slowly. The chunk pacing is
// bounded to ~24 sleeps so a single injection cannot stall a worker for
// longer than 24*Delay.
func (l *lorisWriter) flushTail() {
	if l.code != 0 {
		l.w.WriteHeader(l.code)
	}
	body := l.buf.Bytes()
	chunk := l.chunk
	if maxSleeps := 24; len(body) > maxSleeps*chunk {
		chunk = (len(body) + maxSleeps - 1) / maxSleeps
	}
	fl, _ := l.w.(http.Flusher)
	for len(body) > 0 {
		n := chunk
		if n > len(body) {
			n = len(body)
		}
		if _, err := l.w.Write(body[:n]); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		body = body[n:]
		if len(body) > 0 && l.delay > 0 {
			time.Sleep(l.delay)
		}
	}
}

// RoundTripper returns a client-side middleware injecting transport-level
// faults: KindLatency stalls before dispatch, KindError/KindRateLimit
// synthesize responses without touching the network, KindReset returns a
// connection-reset error, and the body-mangling kinds rewrite the real
// response's body.
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
			return next.RoundTrip(req)
		case KindError:
			status := rl.Status
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			return syntheticResponse(req, status, rl.RetryAfter), nil
		case KindRateLimit:
			return syntheticResponse(req, http.StatusTooManyRequests, rl.RetryAfter), nil
		case KindReset:
			return nil, &net.OpError{Op: "read", Net: "tcp", Err: fmt.Errorf("faultinject: connection reset by peer")}
		case KindTruncate:
			resp, err := next.RoundTrip(req)
			if err != nil {
				return nil, err
			}
			at := rl.TruncateAt
			if at <= 0 {
				at = 12
			}
			resp.Body = &truncatedBody{rc: resp.Body, budget: at}
			return resp, nil
		case KindCorrupt:
			resp, err := next.RoundTrip(req)
			if err != nil {
				return nil, err
			}
			resp.Body = &corruptedBody{rc: resp.Body}
			return resp, nil
		case KindSlowLoris:
			resp, err := next.RoundTrip(req)
			if err != nil {
				return nil, err
			}
			resp.Body = &slowBody{rc: resp.Body, delay: rl.Delay}
			return resp, nil
		}
		return next.RoundTrip(req)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func syntheticResponse(req *http.Request, status int, retryAfter time.Duration) *http.Response {
	h := http.Header{}
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		h.Set("Retry-After", strconv.Itoa(secs))
	}
	body := "fault injected: " + http.StatusText(status) + "\n"
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          newStringBody(body),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

type stringBody struct{ r *bufio.Reader }

func newStringBody(s string) *stringBody {
	return &stringBody{r: bufio.NewReader(bytes.NewReader([]byte(s)))}
}

func (b *stringBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *stringBody) Close() error               { return nil }

// truncatedBody yields budget bytes then an abrupt unexpected EOF.
type truncatedBody struct {
	rc     interface{ Read([]byte) (int, error) }
	closer interface{ Close() error }
	budget int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.budget <= 0 {
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: fmt.Errorf("faultinject: truncated body")}
	}
	if len(p) > t.budget {
		p = p[:t.budget]
	}
	n, err := t.rc.Read(p)
	t.budget -= n
	return n, err
}

func (t *truncatedBody) Close() error {
	if c, ok := t.rc.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// corruptedBody zeroes a span early in the stream, mirroring corruptWriter.
type corruptedBody struct {
	rc      interface{ Read([]byte) (int, error) }
	written int
}

func (c *corruptedBody) Read(p []byte) (int, error) {
	const corruptAt, corruptLen = 2, 4
	n, err := c.rc.Read(p)
	for i := 0; i < n; i++ {
		if pos := c.written + i; pos >= corruptAt && pos < corruptAt+corruptLen {
			p[i] = 0
		}
	}
	c.written += n
	return n, err
}

func (c *corruptedBody) Close() error {
	if cl, ok := c.rc.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// slowBody inserts delay between reads.
type slowBody struct {
	rc    interface{ Read([]byte) (int, error) }
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
	return s.rc.Read(p)
}

func (s *slowBody) Close() error {
	if c, ok := s.rc.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
