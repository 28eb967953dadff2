package resilient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestHostKeyIncludesPort pins the breaker-key derivation: multiple local
// shards on one address must get distinct keys, elided default ports must
// normalize onto their explicit forms, and garbage must key on itself.
func TestHostKeyIncludesPort(t *testing.T) {
	cases := []struct{ url, want string }{
		{"http://127.0.0.1:9001/api/v1/stats", "127.0.0.1:9001"},
		{"http://127.0.0.1:9002/api/v1/stats", "127.0.0.1:9002"},
		{"http://example.com/x", "example.com:80"},
		{"http://example.com:80/x", "example.com:80"},
		{"https://example.com/x", "example.com:443"},
		{"https://example.com:8443/x", "example.com:8443"},
		{"http://[::1]:9001/x", "[::1]:9001"},
		{"http://[::1]/x", "[::1]:80"},
		{"not a url", "not a url"},
	}
	for _, c := range cases {
		if got := hostKey(c.url); got != c.want {
			t.Errorf("hostKey(%q) = %q, want %q", c.url, got, c.want)
		}
	}
	if hostKey("http://h/a") == hostKey("https://h/a") {
		t.Error("http and https on the same host share a breaker key")
	}
}

// TestBreakerIsolatesSickShard runs two "shards" on 127.0.0.1 (different
// ports): one healthy, one answering only 500s. The sick shard must trip
// its own breaker without ever slowing the healthy one — requests to the
// healthy port keep succeeding first-try while the sick port's circuit is
// open.
func TestBreakerIsolatesSickShard(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) //nolint:errcheck
	}))
	defer healthy.Close()
	var sickHits atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sickHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer sick.Close()

	c := New(Config{MaxRetries: 1, Breaker: true, Clock: newFakeClock()})
	ctx := context.Background()

	// Hammer the sick shard until its breaker opens (Get retries then
	// gives up; the breaker counts each failed attempt, two a Get).
	for i := 0; i < breakerFailures/2; i++ {
		ctxT, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := c.Get(ctxT, sick.URL+"/api/v1/stats", nil, nil)
		cancel()
		if err == nil {
			t.Fatal("sick shard unexpectedly succeeded")
		}
	}
	if b := c.breakers.forHost(hostKey(sick.URL + "/api/v1/stats")); b.Opens() == 0 {
		t.Fatal("sick shard breaker never opened")
	} else if _, _, ok := b.Try(); ok {
		t.Fatal("sick shard breaker admits requests while in cooldown")
	}

	// The healthy shard — same IP, different port — must be untouched:
	// closed breaker, instant first-try successes.
	if b := c.breakers.forHost(hostKey(healthy.URL + "/api/v1/stats")); b.Opens() != 0 {
		t.Fatal("healthy shard breaker opened alongside the sick one")
	}
	for i := 0; i < 5; i++ {
		ctxT, cancel := context.WithTimeout(ctx, 2*time.Second)
		res, err := c.Get(ctxT, healthy.URL+"/api/v1/stats", nil, nil)
		cancel()
		if err != nil {
			t.Fatalf("healthy shard request %d failed: %v", i, err)
		}
		if string(res.Body) != "ok" {
			t.Fatalf("healthy body = %q", res.Body)
		}
	}
}
