package edgecache

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/gzipx"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// varyingOrigin negotiates gzip the way the v1 store does: distinct bytes
// and a distinct ETag per encoding, Vary: Accept-Encoding on both. It is
// the minimal origin that breaks a cache keyed on URI alone.
type varyingOrigin struct {
	mu   sync.Mutex
	hits int
}

func (o *varyingOrigin) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits
}

func (o *varyingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.hits++
	o.mu.Unlock()
	plain := []byte(`{"id":1,"category":"c0","downloads":1000,"pad":"` +
		strings.Repeat("x", 512) + `"}`)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Vary", "Accept-Encoding")
	h.Set("Cache-Control", "max-age=60")
	etag, body := `"doc-v1"`, plain
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		etag, body = `"doc-v1-gz"`, gzipx.Compress(plain)
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(body)
}

// rawGet fetches without the Go client's transparent gzip: the explicit
// Accept-Encoding keeps the wire bytes visible to the test.
func rawGet(t *testing.T, url, acceptEncoding string) (int, []byte, http.Header) {
	t.Helper()
	return edgeGet(t, url, map[string]string{"Accept-Encoding": acceptEncoding})
}

// TestVarySplitsCacheKey is the Vary regression test: one URI, two
// representations. Each negotiated encoding must get its own cache entry —
// a gzip client must never receive the identity entry's bytes (or ETag),
// and vice versa, in either fill order.
func TestVarySplitsCacheKey(t *testing.T) {
	origin := &varyingOrigin{}
	s, base := newTestEdge(t, origin, Config{})
	url := base + "/api/v1/apps/1"

	// Identity first: fills the shared (pre-learn) key.
	code, idBody, idHdr := rawGet(t, url, "identity")
	if code != 200 || idHdr.Get("Content-Encoding") != "" {
		t.Fatalf("identity fill: status %d, Content-Encoding %q", code, idHdr.Get("Content-Encoding"))
	}
	if idHdr.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("identity fill: Vary %q, want Accept-Encoding", idHdr.Get("Vary"))
	}

	// Gzip client on the same URI: with a URI-only cache key this would be
	// a fresh hit serving the identity entry; Vary-aware keying makes it a
	// distinct entry holding compressed wire bytes.
	code, gzBody, gzHdr := rawGet(t, url, "gzip")
	if code != 200 {
		t.Fatalf("gzip fill: status %d", code)
	}
	if gzHdr.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip client got Content-Encoding %q — served the identity variant", gzHdr.Get("Content-Encoding"))
	}
	if gzHdr.Get("ETag") != `"doc-v1-gz"` || idHdr.Get("ETag") != `"doc-v1"` {
		t.Fatalf("variant ETags crossed: identity %q, gzip %q", idHdr.Get("ETag"), gzHdr.Get("ETag"))
	}
	plain, err := gzipx.Decompress(gzBody)
	if err != nil {
		t.Fatalf("gzip variant does not inflate: %v", err)
	}
	if !bytes.Equal(plain, idBody) {
		t.Fatal("gzip variant inflates to different content than the identity variant")
	}

	// Both variants now resident: repeat requests are fresh hits served
	// from their own entries, with zero additional origin traffic.
	fills := origin.count()
	for i := 0; i < 3; i++ {
		_, b, h := rawGet(t, url, "identity")
		if h.Get("X-Edge-Cache") != "hit" || h.Get("Content-Encoding") != "" || !bytes.Equal(b, idBody) {
			t.Fatalf("identity re-read %d: verdict %q, Content-Encoding %q", i, h.Get("X-Edge-Cache"), h.Get("Content-Encoding"))
		}
		_, b, h = rawGet(t, url, "gzip")
		if h.Get("X-Edge-Cache") != "hit" || h.Get("Content-Encoding") != "gzip" || !bytes.Equal(b, gzBody) {
			t.Fatalf("gzip re-read %d: verdict %q, Content-Encoding %q", i, h.Get("X-Edge-Cache"), h.Get("Content-Encoding"))
		}
	}
	if got := origin.count(); got != fills {
		t.Fatalf("variant hits cost %d extra origin fetches", got-fills)
	}

	// Each variant revalidates with its own ETag.
	code, body, _ := edgeGet(t, url, map[string]string{
		"Accept-Encoding": "gzip", "If-None-Match": `"doc-v1-gz"`})
	if code != 304 || len(body) != 0 {
		t.Fatalf("gzip conditional: status %d, %d body bytes", code, len(body))
	}
	code, _, _ = edgeGet(t, url, map[string]string{
		"Accept-Encoding": "identity", "If-None-Match": `"doc-v1"`})
	if code != 304 {
		t.Fatalf("identity conditional: status %d, want 304", code)
	}
	// A validator from the other representation must not revalidate.
	code, _, _ = edgeGet(t, url, map[string]string{
		"Accept-Encoding": "identity", "If-None-Match": `"doc-v1-gz"`})
	if code != 200 {
		t.Fatalf("cross-encoding validator revalidated: status %d, want 200", code)
	}

	// The cache charged the compressed entry its wire size, not its
	// inflated size.
	if st := s.Stats(); st.Bytes >= int64(2*len(idBody)) {
		t.Fatalf("resident bytes %d suggest the gzip entry was stored inflated (identity body is %d)", st.Bytes, len(idBody))
	}
}

// TestVaryUnknownDimensionUncacheable pins the conservative half of Vary
// honoring: a response varying on a header the edge cannot key on is
// relayed, never cached — two clients differing in that header must each
// reach the origin.
func TestVaryUnknownDimensionUncacheable(t *testing.T) {
	var hits int
	var mu sync.Mutex
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		lang := r.Header.Get("Accept-Language")
		if lang == "" {
			lang = "en"
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("ETag", `"doc-`+lang+`"`)
		h.Set("Vary", "Accept-Language")
		h.Set("Cache-Control", "max-age=60")
		fmt.Fprintf(w, `{"lang":%q}`, lang)
	})
	_, base := newTestEdge(t, origin, Config{})
	url := base + "/api/v1/apps/1"

	_, _, enHdr := edgeGet(t, url, map[string]string{"Accept-Language": "en"})
	if enHdr.Get("X-Edge-Cache") != "pass" {
		t.Fatalf("Vary: Accept-Language response cached (verdict %q)", enHdr.Get("X-Edge-Cache"))
	}
	if enHdr.Get("Vary") != "Accept-Language" {
		t.Fatalf("pass response dropped Vary (got %q)", enHdr.Get("Vary"))
	}
	_, _, deHdr := edgeGet(t, url, map[string]string{"Accept-Language": "de"})
	if deHdr.Get("X-Edge-Cache") != "pass" {
		t.Fatalf("second request verdict %q, want pass (must not have been cached)", deHdr.Get("X-Edge-Cache"))
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 2 {
		t.Fatalf("origin hits = %d, want 2 (uncacheable)", hits)
	}
}

// smallDocStore is a real store whose app 5 has a five-comment stream: like
// every detail row, too small to keep a gzip representation, so the store
// serves it as one representation and sends no Vary.
func smallDocStore(t *testing.T, cfg storeserver.Config) (*storeserver.Server, string) {
	t.Helper()
	m, err := marketsim.New(marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05)), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := storeserver.New(m, cfg)
	var cs []comments.Comment
	for j := 0; j < 5; j++ {
		cs = append(cs, comments.Comment{User: catalog.UserID(100 + j), App: 5, Rating: 4, Time: time.Unix(1356998400+int64(j)*3600, 0)})
	}
	srv.SetComments(cs)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// TestSingleRepresentationSharesOneEntry is the residency regression test
// for documents the origin does not negotiate: a gzip client and an
// identity client asking for the same small document must share one
// resident entry filled by one origin fetch, in either arrival order. (The
// store used to stamp Vary: Accept-Encoding on every document, so the edge
// kept two byte-identical copies of each.)
func TestSingleRepresentationSharesOneEntry(t *testing.T) {
	_, origin := smallDocStore(t, storeserver.Config{FreshFor: time.Minute})
	s, edge := edgeFor(t, origin, Config{CapacityBytes: 1 << 20})

	for n, tc := range []struct{ path, first, second string }{
		{"/api/v1/apps/3", "gzip", "identity"},
		{"/api/v1/apps/4", "identity", "gzip"},
		{"/api/v1/apps/5/comments", "gzip", "identity"},
	} {
		code, body1, hdr1 := rawGet(t, edge+tc.path, tc.first)
		if code != 200 || hdr1.Get("X-Edge-Cache") != "miss" {
			t.Fatalf("%s (%s): status %d, verdict %q", tc.path, tc.first, code, hdr1.Get("X-Edge-Cache"))
		}
		code, body2, hdr2 := rawGet(t, edge+tc.path, tc.second)
		if code != 200 || hdr2.Get("X-Edge-Cache") != "hit" {
			t.Fatalf("%s (%s after %s): status %d, verdict %q, want a hit on the shared entry",
				tc.path, tc.second, tc.first, code, hdr2.Get("X-Edge-Cache"))
		}
		for _, h := range []http.Header{hdr1, hdr2} {
			if h.Get("Content-Encoding") != "" || h.Get("Vary") != "" || h.Get("ETag") != hdr1.Get("ETag") {
				t.Fatalf("%s: Content-Encoding %q, Vary %q, ETag %q: want the one identity representation (%q)",
					tc.path, h.Get("Content-Encoding"), h.Get("Vary"), h.Get("ETag"), hdr1.Get("ETag"))
			}
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: the two clients got different bytes", tc.path)
		}
		if st := s.Stats(); st.Entries != n+1 || st.OriginRequests != int64(n+1) {
			t.Fatalf("after %s: %d resident entries, %d origin fetches, want %d and %d",
				tc.path, st.Entries, st.OriginRequests, n+1, n+1)
		}
	}
}

// TestCrossingTheFloorIsRelearnedAsVarying: a document that grows past the
// size at which the store keeps a gzip representation starts varying on
// Accept-Encoding at that day-roll, and the edge — which had it under the
// shared bare-URI entry — must give each variant its own entry from then
// on instead of handing one client the other's bytes.
func TestCrossingTheFloorIsRelearnedAsVarying(t *testing.T) {
	srv, origin := smallDocStore(t, storeserver.Config{}) // max-age=0: the edge revalidates every request
	s, edge := edgeFor(t, origin, Config{CapacityBytes: 1 << 20})
	const path = "/api/v1/apps/5/comments"

	_, small, hdr := rawGet(t, edge+path, "gzip")
	if hdr.Get("Vary") != "" || hdr.Get("Content-Encoding") != "" {
		t.Fatalf("day 0: Vary %q, Content-Encoding %q: the stream was meant to start under the floor", hdr.Get("Vary"), hdr.Get("Content-Encoding"))
	}
	rawGet(t, edge+path, "identity")
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("day 0: %d resident entries for one single-representation document", st.Entries)
	}

	for u := 0; u < 4; u++ {
		res, err := http.Post(origin+path, "application/json", strings.NewReader(fmt.Sprintf(`{"user":%d,"rating":5}`, 900+u)))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("comment write: status %d", res.StatusCode)
		}
	}
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		_, gzBody, gzHdr := rawGet(t, edge+path, "gzip")
		_, idBody, idHdr := rawGet(t, edge+path, "identity")
		if gzHdr.Get("Content-Encoding") != "gzip" || idHdr.Get("Content-Encoding") != "" {
			t.Fatalf("round %d: gzip client got Content-Encoding %q, identity client %q",
				round, gzHdr.Get("Content-Encoding"), idHdr.Get("Content-Encoding"))
		}
		if gzHdr.Get("Vary") != "Accept-Encoding" || idHdr.Get("Vary") != "Accept-Encoding" {
			t.Fatalf("round %d: Vary %q / %q after the document started varying", round, gzHdr.Get("Vary"), idHdr.Get("Vary"))
		}
		if want := strings.TrimSuffix(idHdr.Get("ETag"), `"`) + `-gz"`; gzHdr.Get("ETag") != want {
			t.Fatalf("round %d: gzip ETag %q, want %q", round, gzHdr.Get("ETag"), want)
		}
		plain, err := gzipx.Decompress(gzBody)
		if err != nil || !bytes.Equal(plain, idBody) || len(idBody) <= len(small) {
			t.Fatalf("round %d: variants disagree or the stream did not grow (err %v, %d B identity, %d B on day 0)",
				round, err, len(idBody), len(small))
		}
	}
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("%d resident entries, want one per variant", st.Entries)
	}
}
