package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// originAndProxy spins up an origin server and a proxy in front of it,
// returning a client configured to use the proxy plus the origin's capture
// of forwarded headers.
func originAndProxy(t *testing.T) (client *http.Client, originURL string, p *Proxy, lastHeaders *http.Header) {
	t.Helper()
	var captured http.Header
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		captured = r.Header.Clone()
		fmt.Fprint(w, "origin says hi")
	}))
	t.Cleanup(origin.Close)

	p = New("planetlab-cn-03")
	proxySrv := httptest.NewServer(p.Handler())
	t.Cleanup(proxySrv.Close)

	proxyURL, err := url.Parse(proxySrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client = &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	return client, origin.URL, p, &captured
}

func TestProxyForwards(t *testing.T) {
	client, originURL, p, captured := originAndProxy(t)
	resp, err := client.Get(originURL + "/path?q=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "origin says hi" {
		t.Fatalf("body = %q", body)
	}
	if p.Requests() != 1 {
		t.Fatalf("proxy counted %d requests", p.Requests())
	}
	if via := captured.Get("Via"); via != "1.1 planetlab-cn-03" {
		t.Fatalf("Via = %q", via)
	}
	if xff := captured.Get("X-Forwarded-For"); xff == "" {
		t.Fatal("X-Forwarded-For missing")
	}
}

func TestProxyUpstreamError(t *testing.T) {
	p := New("node")
	proxySrv := httptest.NewServer(p.Handler())
	defer proxySrv.Close()
	proxyURL, _ := url.Parse(proxySrv.URL)
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	// Unroutable origin.
	resp, err := client.Get("http://127.0.0.1:1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

func TestProxyRejectsRelativeTarget(t *testing.T) {
	p := New("node")
	req := httptest.NewRequest(http.MethodGet, "/relative", nil)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestProxyRejectsConnect(t *testing.T) {
	p := New("node")
	req := httptest.NewRequest(http.MethodConnect, "example.com:443", nil)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}
}

// TestPoolRotation holds the parsed pool to the nodes it was given, in
// order; the rotation over them is resilient.ProxyHealth's
// (TestProxyHealthPick).
func TestPoolRotation(t *testing.T) {
	urls, err := ParseURLs([]string{"http://a:1", "http://b:2", "http://c:3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 3 || urls[0].Host != "a:1" || urls[1].Host != "b:2" || urls[2].Host != "c:3" {
		t.Fatalf("parsed %v", urls)
	}
}

func TestPoolErrors(t *testing.T) {
	if _, err := ParseURLs(nil); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := ParseURLs([]string{"https://secure:443"}); err == nil {
		t.Fatal("https proxy accepted")
	}
	if _, err := ParseURLs([]string{"://bad"}); err == nil {
		t.Fatal("unparsable URL accepted")
	}
}
