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

	transport http.RoundTripper
	requests  atomic.Int64
}

// New creates a named proxy using the default HTTP transport.
func New(name string) *Proxy {
	return &Proxy{Name: name, transport: http.DefaultTransport}
}

// Requests returns the number of requests relayed so far.
func (p *Proxy) Requests() int64 { return p.requests.Load() }

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

// ParseURLs parses the base URLs (e.g. "http://127.0.0.1:9001") of the
// proxies the crawler rotates through — the paper's crawlers "randomly
// select one of these proxies" per request. The rotation itself is
// resilient.ProxyHealth's: round-robin over healthy nodes, which gives the
// same spreading deterministically.
func ParseURLs(rawURLs []string) ([]*url.URL, error) {
	if len(rawURLs) == 0 {
		return nil, fmt.Errorf("proxy: empty pool")
	}
	var urls []*url.URL
	for _, raw := range rawURLs {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("proxy: bad URL %q: %w", raw, err)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("proxy: unsupported scheme %q in %q", u.Scheme, raw)
		}
		urls = append(urls, u)
	}
	return urls, nil
}
