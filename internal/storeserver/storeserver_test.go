package storeserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
)

func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStats(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	var st StatsJSON
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Store != "slideme" || st.Apps == 0 || st.TotalDownloads == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestListingPagination walks the catalog the way a client that has never
// seen a cursor does: the bare listing is the first slice, each
// next_cursor leads to the next.
func TestListingPagination(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 100})
	seen := map[int32]bool{}
	total := 0
	for url := ts.URL + "/api/v1/apps"; ; {
		var page CursorPageJSON
		if code := getJSON(t, url, &page); code != 200 {
			t.Fatalf("%s: status %d", url, code)
		}
		if len(seen) == 0 && len(page.Apps) != 100 {
			t.Fatalf("first slice has %d apps", len(page.Apps))
		}
		for _, a := range page.Apps {
			if seen[a.ID] {
				t.Fatalf("app %d repeated across slices", a.ID)
			}
			seen[a.ID] = true
		}
		total = page.Total
		if page.NextCursor == "" {
			break
		}
		url = ts.URL + "/api/v1/apps?cursor=" + page.NextCursor
	}
	if len(seen) != total {
		t.Fatalf("walked %d apps, total says %d", len(seen), total)
	}
}

// TestListingErrors: a page number, in or out of any range, is refused.
func TestListingErrors(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 100})
	var out CursorPageJSON
	for _, q := range []string{"page=badnum", "page=100000", "page=0"} {
		if code := getJSON(t, ts.URL+"/api/v1/apps?"+q, &out); code != 400 {
			t.Fatalf("?%s: status %d, want 400", q, code)
		}
	}
}

func TestAppDetail(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	var app AppJSON
	if code := getJSON(t, ts.URL+"/api/v1/apps/0", &app); code != 200 {
		t.Fatalf("status %d", code)
	}
	if app.ID != 0 || app.Category == "" || app.Developer == "" {
		t.Fatalf("app = %+v", app)
	}
	if code := getJSON(t, ts.URL+"/api/v1/apps/99999999", &app); code != 404 {
		t.Fatalf("missing app: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/apps/abc", &app); code != 400 {
		t.Fatalf("bad id: status %d", code)
	}
}

func TestCommentsEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})
	cfg := comments.DefaultGenConfig(200)
	// Generate over the server's catalog via a fresh market? Use the same
	// catalog through the server's market: regenerate deterministically.
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := comments.Generate(m.Catalog(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.SetComments(cs)
	var total int
	for id := 0; id < 50; id++ {
		var out []CommentJSON
		if code := getJSON(t, fmt.Sprintf("%s/api/v1/apps/%d/comments", ts.URL, id), &out); code != 200 {
			t.Fatalf("status %d", code)
		}
		total += len(out)
	}
	if total == 0 {
		t.Fatal("no comments served over 50 apps")
	}
}

func TestRateLimiting(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50, RatePerSec: 5, Burst: 3})
	limited := false
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if !limited {
		t.Fatal("burst of 10 requests never hit the limit")
	}
}

func TestRateLimitPerClient(t *testing.T) {
	s, _ := testServer(t, Config{PageSize: 50, RatePerSec: 1, Burst: 1})
	// Distinct X-Forwarded-For chains count as distinct clients.
	h := s.Handler()
	status := func(xff string) int {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
		req.Header.Set("X-Forwarded-For", xff)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if status("1.1.1.1,proxy-a") != 200 {
		t.Fatal("first client's first request limited")
	}
	if status("1.1.1.1,proxy-a") != 429 {
		t.Fatal("first client's second request not limited")
	}
	if status("2.2.2.2,proxy-b") != 200 {
		t.Fatal("second client limited by first client's bucket")
	}
}

func TestAdvanceDay(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})
	var before, after StatsJSON
	getJSON(t, ts.URL+"/api/v1/stats", &before)
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/api/v1/stats", &after)
	if after.Day != before.Day+1 {
		t.Fatalf("day %d -> %d", before.Day, after.Day)
	}
	if after.TotalDownloads <= before.TotalDownloads {
		t.Fatalf("downloads did not grow: %d -> %d", before.TotalDownloads, after.TotalDownloads)
	}
}

func TestAppName(t *testing.T) {
	for _, id := range []int32{0, 7, 99, 12345, 1234567} {
		want := fmt.Sprintf("%s-app-%05d", "slideme", id)
		if got := string(appendAppName(nil, "slideme", id)); got != want {
			t.Errorf("appendAppName(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestJSONConditionalGET exercises the snapshot-derived ETags: a repeated
// GET with If-None-Match returns 304 with no body, and advancing the day
// changes the ETag for day-dependent documents.
func TestJSONConditionalGET(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})
	for _, path := range []string{"/api/v1/stats", "/api/v1/apps?cursor=", "/api/v1/apps/3", "/api/v1/apps/3/comments"} {
		// Identity on the wire, so Content-Length is the body's (the Go
		// client's transparent gzip would strip the header).
		_, body, hdr := fetch(t, ts.URL+path, map[string]string{"Accept-Encoding": "identity"})
		etag := hdr.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", path)
		}
		if cl := hdr.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Fatalf("%s: Content-Length %s, body %d bytes", path, cl, len(body))
		}
		code, b2, _ := fetch(t, ts.URL+path, map[string]string{"Accept-Encoding": "identity", "If-None-Match": etag})
		if code != http.StatusNotModified {
			t.Fatalf("%s: conditional GET returned %d", path, code)
		}
		if len(b2) != 0 {
			t.Fatalf("%s: 304 carried %d body bytes", path, len(b2))
		}
	}
	// Day-dependent documents revalidate to fresh content after AdvanceDay.
	resp, _ := http.Get(ts.URL + "/api/v1/stats")
	oldTag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/stats", nil)
	req.Header.Set("If-None-Match", oldTag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag after AdvanceDay returned %d, want 200", resp3.StatusCode)
	}
	if newTag := resp3.Header.Get("ETag"); newTag == oldTag {
		t.Fatalf("ETag did not change across days: %s", newTag)
	}
}

// TestListPageAllocBound is the listing's allocation regression gate: a
// slice is rendered per request by the append encoder straight from the
// export's rows, so per-request allocations stay bounded by harness
// overhead (request parse, recorder, headers) rather than growing with the
// 100 apps on the page. The pre-snapshot server spent ~236 allocs/op here.
func TestListPageAllocBound(t *testing.T) {
	s, _ := testServer(t, Config{PageSize: 100})
	h := s.Handler()
	get := func() {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/apps", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	get() // warm the scratch-buffer pool
	allocs := testing.AllocsPerRun(200, get)
	// 30 allocs/op measured (mostly httptest harness); leave headroom for
	// race-mode and stdlib drift while still failing if per-app encoding
	// ever sneaks back onto the request path.
	if allocs > 60 {
		t.Errorf("list page took %.0f allocs/op, want <= 60", allocs)
	}
}

func TestAPKEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	resp, err := http.Get(ts.URL + "/api/v1/apps/0/apk")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) < 16 {
		t.Fatalf("payload only %d bytes", len(body))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag")
	}
	// Same version: identical payload.
	resp2, err := http.Get(ts.URL + "/api/v1/apps/0/apk")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(body, body2) {
		t.Fatal("APK payload not deterministic")
	}
	// Conditional request with the ETag short-circuits.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/apps/0/apk", nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body) //nolint:errcheck
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET returned %d", resp3.StatusCode)
	}
	// Unknown app.
	resp4, err := http.Get(ts.URL + "/api/v1/apps/999999/apk")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != 404 {
		t.Fatalf("missing app returned %d", resp4.StatusCode)
	}
}
