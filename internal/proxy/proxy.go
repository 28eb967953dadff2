// Package proxy implements a minimal HTTP forward proxy, standing in for
// the ~100 PlanetLab nodes the paper's crawlers routed requests through to
// avoid IP blacklisting and regional rate limits (Figure 1).
//
// The proxy handles plain-HTTP forwarding (GET et al. with absolute-form
// request targets) — sufficient for the in-process crawling pipeline —
// and counts the requests it relays so tests and experiments can verify
// load spreading across the fleet.
package proxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
)

// Proxy is a forward HTTP proxy. Create with New, then serve its Handler
// (typically via httptest.Server or http.Server).
type Proxy struct {
	// Name labels the node (e.g. "planetlab-cn-03").
	Name string
	// Region is a free-form location tag; the paper needed China-located
	// proxies for the Chinese stores.
	Region string

	transport http.RoundTripper
	requests  atomic.Int64
	errors    atomic.Int64
}

// New creates a named proxy using the default HTTP transport.
func New(name, region string) *Proxy {
	return &Proxy{Name: name, Region: region, transport: http.DefaultTransport}
}

// Requests returns the number of requests relayed so far.
func (p *Proxy) Requests() int64 { return p.requests.Load() }

// Errors returns the number of upstream failures.
func (p *Proxy) Errors() int64 { return p.errors.Load() }

// Handler returns the proxy's HTTP handler.
func (p *Proxy) Handler() http.Handler {
	return http.HandlerFunc(p.serve)
}

// hopHeaders are stripped when forwarding, per RFC 7230 §6.1.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodConnect {
		// CONNECT tunneling (HTTPS) is out of scope for the simulation.
		http.Error(w, "CONNECT not supported", http.StatusMethodNotAllowed)
		return
	}
	if !r.URL.IsAbs() {
		http.Error(w, "proxy requires absolute-form request target", http.StatusBadRequest)
		return
	}
	p.requests.Add(1)

	out, err := http.NewRequestWithContext(r.Context(), r.Method, r.URL.String(), r.Body)
	if err != nil {
		p.errors.Add(1)
		http.Error(w, fmt.Sprintf("proxy: %v", err), http.StatusBadGateway)
		return
	}
	copyHeader(out.Header, r.Header)
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	// Record the chain so the origin can attribute the request to the
	// original client (and rate-limit per proxy node, as the real stores
	// effectively did).
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		out.Header.Set("X-Forwarded-For", host+","+p.Name)
	} else {
		out.Header.Set("X-Forwarded-For", p.Name)
	}
	out.Header.Set("Via", "1.1 "+p.Name)

	resp, err := p.transport.RoundTrip(out)
	if err != nil {
		p.errors.Add(1)
		http.Error(w, fmt.Sprintf("proxy upstream: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	for _, h := range hopHeaders {
		w.Header().Del(h)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // best-effort body relay
}

func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// Pool is the set of proxies the crawler rotates through — the paper's
// crawlers "randomly select one of these proxies" per request. The
// rotation itself is resilient.ProxyHealth's: round-robin over healthy
// nodes, which gives the same spreading deterministically.
type Pool struct {
	urls []*url.URL
}

// NewPool parses the given proxy base URLs (e.g. "http://127.0.0.1:9001").
func NewPool(rawURLs []string) (*Pool, error) {
	if len(rawURLs) == 0 {
		return nil, fmt.Errorf("proxy: empty pool")
	}
	p := &Pool{}
	for _, raw := range rawURLs {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("proxy: bad URL %q: %w", raw, err)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("proxy: unsupported scheme %q in %q", u.Scheme, raw)
		}
		p.urls = append(p.urls, u)
	}
	return p, nil
}

// Size returns the number of proxies in the pool.
func (p *Pool) Size() int { return len(p.urls) }

// At returns the i-th proxy URL (modulo the pool size) — index-addressed
// access for the health-scored selector, which manages the rotation.
func (p *Pool) At(i int) *url.URL { return p.urls[i%len(p.urls)] }
