package edgecache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingOrigin is a synthetic /api/v1-shaped origin with per-path hit
// counting and a switchable failure mode, for exercising the edge's HTTP
// machinery without a full store behind it.
type countingOrigin struct {
	mu      sync.Mutex
	hits    map[string]int
	failing bool // when set, every request returns 503
	slow    time.Duration
	maxAge  int
}

func newCountingOrigin(maxAge int) *countingOrigin {
	return &countingOrigin{hits: map[string]int{}, maxAge: maxAge}
}

func (o *countingOrigin) count(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits[path]
}

func (o *countingOrigin) total() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, v := range o.hits {
		n += v
	}
	return n
}

func (o *countingOrigin) setFailing(v bool) {
	o.mu.Lock()
	o.failing = v
	o.mu.Unlock()
}

func (o *countingOrigin) setMaxAge(v int) {
	o.mu.Lock()
	o.maxAge = v
	o.mu.Unlock()
}

func (o *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.hits[r.URL.Path]++
	failing, slow, maxAge := o.failing, o.slow, o.maxAge
	o.mu.Unlock()
	if slow > 0 {
		time.Sleep(slow)
	}
	if failing {
		http.Error(w, "origin down", http.StatusServiceUnavailable)
		return
	}
	if strings.HasSuffix(r.URL.Path, "/apk") {
		w.Header().Set("Content-Type", "application/vnd.android.package-archive")
		w.Header().Set("ETag", `"apk-v1"`)
		w.Write([]byte("PK\x03\x04 not json"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/apps/")
	etag := fmt.Sprintf(`"doc-%s-v1"`, id)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("ETag", etag)
	h.Set("X-Store-Day", "0")
	h.Set("Cache-Control", fmt.Sprintf("max-age=%d", maxAge))
	h.Set("Age", "0")
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var n int
	fmt.Sscanf(id, "%d", &n)
	fmt.Fprintf(w, `{"id":%s,"category":"c%d","downloads":%d}`, id, n%2, 100000-n)
}

// newTestEdge builds an edge in front of a handler and returns the server
// plus a client-side base URL.
func newTestEdge(t *testing.T, origin http.Handler, cfg Config) (*Server, string) {
	t.Helper()
	ots := httptest.NewServer(origin)
	t.Cleanup(ots.Close)
	cfg.Origin = ots.URL
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ets := httptest.NewServer(s.Handler())
	t.Cleanup(ets.Close)
	return s, ets.URL
}

func edgeGet(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, body, res.Header
}

// TestSingleFlightCollapse pins the stampede contract: N concurrent
// requests for one cold key cost the origin exactly one fetch, and every
// client still gets the full body.
func TestSingleFlightCollapse(t *testing.T) {
	origin := newCountingOrigin(60)
	origin.slow = 50 * time.Millisecond // hold the flight open so followers pile up
	s, base := newTestEdge(t, origin, Config{})

	const clients = 16
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := edgeGet(t, base+"/api/v1/apps/7", nil)
			if code != http.StatusOK || !strings.Contains(string(body), `"id":7`) {
				bad.Add(1)
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d concurrent clients got a wrong response", bad.Load(), clients)
	}
	if got := origin.count("/api/v1/apps/7"); got != 1 {
		t.Fatalf("origin saw %d fetches for one key, want exactly 1", got)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced != clients-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, clients-1)
	}
	if st.OriginRequests != 1 {
		t.Fatalf("origin requests = %d, want 1", st.OriginRequests)
	}
}

// TestStaleServedOnOriginFailure pins stale-while-unreachable: when the
// origin's 5xx storm outlasts the retry budget, the edge serves the stale
// copy instead of an error — and a key it never cached is an honest 502.
func TestStaleServedOnOriginFailure(t *testing.T) {
	origin := newCountingOrigin(0) // max-age=0: every request revalidates
	s, base := newTestEdge(t, origin, Config{OriginRetries: 2})

	code, body, _ := edgeGet(t, base+"/api/v1/apps/3", nil)
	if code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	origin.setFailing(true)
	code, got, hdr := edgeGet(t, base+"/api/v1/apps/3", nil)
	if code != http.StatusOK {
		t.Fatalf("stale serve status %d, want 200", code)
	}
	if hdr.Get("X-Edge-Cache") != "stale" {
		t.Fatalf("X-Edge-Cache = %q, want stale", hdr.Get("X-Edge-Cache"))
	}
	if string(got) != string(body) {
		t.Fatal("stale body differs from the cached copy")
	}
	if st := s.Stats(); st.StaleServed != 1 {
		t.Fatalf("StaleServed = %d, want 1", st.StaleServed)
	}

	// Nothing cached for this key: the failure has to surface.
	code, _, hdr = edgeGet(t, base+"/api/v1/apps/99", nil)
	if code != http.StatusBadGateway {
		t.Fatalf("uncached key during outage: status %d, want 502", code)
	}
	if hdr.Get("X-Edge-Cache") != "error" {
		t.Fatalf("X-Edge-Cache = %q, want error", hdr.Get("X-Edge-Cache"))
	}

	// Origin recovers: the stale copy revalidates back to fresh.
	origin.setFailing(false)
	_, _, hdr = edgeGet(t, base+"/api/v1/apps/3", nil)
	if v := hdr.Get("X-Edge-Cache"); v != "revalidated" {
		t.Fatalf("post-recovery X-Edge-Cache = %q, want revalidated", v)
	}
}

// TestFreshnessAndRevalidation pins the freshness model: inside max-age the
// edge serves without origin I/O; with max-age=0 every request is an
// If-None-Match revalidation that the origin answers 304.
func TestFreshnessAndRevalidation(t *testing.T) {
	origin := newCountingOrigin(60)
	s, base := newTestEdge(t, origin, Config{})

	_, first, _ := edgeGet(t, base+"/api/v1/apps/1", nil)
	_, second, hdr := edgeGet(t, base+"/api/v1/apps/1", nil)
	if hdr.Get("X-Edge-Cache") != "hit" {
		t.Fatalf("second request X-Edge-Cache = %q, want hit", hdr.Get("X-Edge-Cache"))
	}
	if string(first) != string(second) {
		t.Fatal("hit body differs from miss body")
	}
	if got := origin.count("/api/v1/apps/1"); got != 1 {
		t.Fatalf("fresh window cost %d origin fetches, want 1", got)
	}
	if hdr.Get("Cache-Control") != "max-age=60" {
		t.Fatalf("Cache-Control not forwarded: %q", hdr.Get("Cache-Control"))
	}
	if hdr.Get("Age") == "" {
		t.Fatal("hit response missing Age")
	}

	// An always-stale origin document costs one conditional fetch per
	// request, answered 304 — the edge keeps serving its stored body.
	origin.setMaxAge(0)
	_, _, _ = edgeGet(t, base+"/api/v1/apps/2", nil)
	_, _, hdr = edgeGet(t, base+"/api/v1/apps/2", nil)
	if hdr.Get("X-Edge-Cache") != "revalidated" {
		t.Fatalf("X-Edge-Cache = %q, want revalidated", hdr.Get("X-Edge-Cache"))
	}
	if got := origin.count("/api/v1/apps/2"); got != 2 {
		t.Fatalf("origin fetches = %d, want 2 (miss + revalidation)", got)
	}
	if st := s.Stats(); st.Revalidated != 1 {
		t.Fatalf("Revalidated = %d, want 1", st.Revalidated)
	}
}

// TestClientConditional pins the downstream-validator contract: a client's
// If-None-Match is answered by the edge itself, costing the origin nothing
// while the entry is fresh.
func TestClientConditional(t *testing.T) {
	origin := newCountingOrigin(60)
	s, base := newTestEdge(t, origin, Config{})

	_, _, hdr := edgeGet(t, base+"/api/v1/apps/5", nil)
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on the filled response")
	}
	code, body, hdr := edgeGet(t, base+"/api/v1/apps/5", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", code)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if hdr.Get("ETag") != etag {
		t.Fatalf("304 ETag %q, want %q", hdr.Get("ETag"), etag)
	}
	if got := origin.count("/api/v1/apps/5"); got != 1 {
		t.Fatalf("client 304 cost an origin fetch (%d total)", got)
	}
	if st := s.Stats(); st.Client304 != 1 {
		t.Fatalf("Client304 = %d, want 1", st.Client304)
	}
}

// TestAPKPassthrough pins the uncacheable path: non-JSON payloads relay
// through the edge uncached, and a version-aware conditional client still
// gets its 304 on an exact ETag match.
func TestAPKPassthrough(t *testing.T) {
	origin := newCountingOrigin(60)
	s, base := newTestEdge(t, origin, Config{})

	code, body, hdr := edgeGet(t, base+"/api/v1/apps/4/apk", nil)
	if code != http.StatusOK || hdr.Get("X-Edge-Cache") != "pass" {
		t.Fatalf("apk: status %d, X-Edge-Cache %q", code, hdr.Get("X-Edge-Cache"))
	}
	if !strings.HasPrefix(string(body), "PK") {
		t.Fatalf("apk body mangled: %q", body)
	}
	etag := hdr.Get("ETag")

	// Uncached: a second fetch hits the origin again.
	edgeGet(t, base+"/api/v1/apps/4/apk", nil)
	if got := origin.count("/api/v1/apps/4/apk"); got != 2 {
		t.Fatalf("apk origin fetches = %d, want 2 (never cached)", got)
	}

	code, _, _ = edgeGet(t, base+"/api/v1/apps/4/apk", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("conditional apk status %d, want 304", code)
	}
	if st := s.Stats(); st.Passthrough != 3 {
		t.Fatalf("Passthrough = %d, want 3", st.Passthrough)
	}
}
