package storeserver

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// This file pins the tentpole claim of the zero-allocation serving PR:
// once a document is warm, the cache-hit path — router dispatch, rate
// limiter, instrumentation, negotiation, conditional handling, and the
// response write — performs zero heap allocations per request. The
// harness supplies what a keep-alive net/http connection supplies in
// production: a reusable response writer whose header map persists
// between requests (net/http recycles header maps per connection;
// hset writes values into the existing slots). Everything the server
// itself touches is measured.

// nullWriter is a minimal ResponseWriter with a persistent header map and
// a discarded body, standing in for a recycled keep-alive connection.
type nullWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}
func (w *nullWriter) WriteHeader(code int) { w.status = code }

func allocServer(t *testing.T) *Server {
	t.Helper()
	// Rate limiting on (the hot path includes the limiter), huge budget so
	// nothing 429s; FreshFor so v1 freshness headers are the constant-Age
	// flavor (the DayInterval flavor re-renders Age once per second, which
	// is one amortized allocation AllocsPerRun's integer average ignores —
	// but the budget test should not depend on wall-clock luck). App 3 gets
	// a comment stream long enough to keep a gzip representation: the only
	// kind of document that has one.
	s := etagTestServer(t, Config{PageSize: 100, RatePerSec: 1e12, Burst: 1 << 30, FreshFor: time.Minute})
	s.SetComments(commentRun(3, 40))
	return s
}

func measureAllocs(t *testing.T, name string, h http.Handler, req *http.Request, wantStatus, budget int) {
	t.Helper()
	w := &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm: doc fill, header-slot creation, limiter bucket
	if st := w.status; (st == 0 && wantStatus != http.StatusOK) || (st != 0 && st != wantStatus) {
		got := st
		if got == 0 {
			got = http.StatusOK
		}
		t.Fatalf("%s: warm-up status %d, want %d", name, got, wantStatus)
	}
	n := testing.AllocsPerRun(500, func() {
		w.status = 0
		h.ServeHTTP(w, req)
	})
	t.Logf("%s: %.1f allocs/op", name, n)
	if n > float64(budget) {
		t.Errorf("%s: %.1f allocs/op on the warm hit path, want <= %d", name, n, budget)
	}
}

func hitReq(path string, hdr map[string]string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return req
}

// TestHitPathAllocBudget sweeps the warm cache-hit paths that carry
// essentially all production traffic and requires each to be
// allocation-free: identity and gzip, 200 and 304. A listing slice is not
// a cache hit — it is rendered per request — so its row pins the render's
// handful of allocations (the ETag's pieces) instead of zero.
func TestHitPathAllocBudget(t *testing.T) {
	s := allocServer(t)
	h := s.Handler()
	const stream = "/api/v1/apps/3/comments"

	// Discover the representation ETags for the 304 scenarios.
	w := &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, hitReq(stream, map[string]string{"Accept-Encoding": "gzip"}))
	gzStreamETag := w.h.Get("ETag")
	w2 := &nullWriter{h: http.Header{}}
	h.ServeHTTP(w2, hitReq("/api/v1/apps/3", nil))
	idDetailETag := w2.h.Get("ETag")
	if gzStreamETag == "" || idDetailETag == "" {
		t.Fatal("warm-up did not yield ETags")
	}
	// The gzip rows are about the pre-compressed representation, so they
	// run on the comment stream, which keeps one (a detail row is under
	// gzipx's size floor: "v1-detail-gzip" is the negotiation scan falling
	// through to identity).
	if ce := w.h.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("comment stream negotiated as gzip came back Content-Encoding %q: the gzip rows would measure identity", ce)
	}

	// A 100-row slice render measures 6 allocs/op (12 under -race): the
	// ceiling leaves room for noise, not for a row struct per app.
	const sliceBudget = 24
	h.ServeHTTP(w, hitReq("/api/v1/apps", nil))
	sliceETag := w.h.Get("ETag")
	cases := []struct {
		name   string
		req    *http.Request
		status int
		budget int
	}{
		{"v1-list-identity", hitReq("/api/v1/apps", map[string]string{"Accept-Encoding": "identity"}), 200, sliceBudget},
		{"v1-list-gzip", hitReq("/api/v1/apps", map[string]string{"Accept-Encoding": "gzip"}), 200, sliceBudget},
		{"v1-list-304-gzip", hitReq("/api/v1/apps", map[string]string{
			"Accept-Encoding": "gzip", "If-None-Match": sliceETag}), 304, sliceBudget},
		{"v1-comments-identity", hitReq(stream, map[string]string{"Accept-Encoding": "identity"}), 200, allocSlack},
		{"v1-comments-gzip", hitReq(stream, map[string]string{"Accept-Encoding": "gzip"}), 200, allocSlack},
		{"v1-comments-304-gzip", hitReq(stream, map[string]string{
			"Accept-Encoding": "gzip", "If-None-Match": gzStreamETag}), 304, allocSlack},
		{"v1-detail-gzip", hitReq("/api/v1/apps/3", map[string]string{"Accept-Encoding": "gzip, deflate, br"}), 200, allocSlack},
		{"v1-stats", hitReq("/api/v1/stats", nil), 200, allocSlack},
		{"v1-detail-304-identity", hitReq("/api/v1/apps/3", map[string]string{
			"If-None-Match": idDetailETag}), 304, allocSlack},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			measureAllocs(t, tc.name, h, tc.req, tc.status, tc.budget)
		})
	}
}

// TestHitPathServesBytes sanity-checks the harness itself: the pooled
// writer must actually receive the document bytes (a zero-alloc path that
// serves nothing would pass the budget vacuously).
func TestHitPathServesBytes(t *testing.T) {
	s := allocServer(t)
	h := s.Handler()
	w := &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, hitReq("/api/v1/apps/3/comments", map[string]string{"Accept-Encoding": "gzip"}))
	if w.bytes == 0 {
		t.Fatal("gzip comments hit wrote no body")
	}
	gz := w.bytes
	w = &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, hitReq("/api/v1/apps/3/comments", map[string]string{"Accept-Encoding": "identity"}))
	if w.bytes == 0 {
		t.Fatal("identity comments hit wrote no body")
	}
	if gz >= w.bytes {
		t.Fatalf("gzip wire size %d not smaller than identity %d", gz, w.bytes)
	}
	w = &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, hitReq("/api/v1/apps", nil))
	if w.bytes == 0 {
		t.Fatal("listing slice wrote no body")
	}
}
