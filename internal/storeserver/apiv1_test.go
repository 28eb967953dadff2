package storeserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/catalog"
	"planetapps/internal/faultinject"
	"planetapps/internal/gzipx"
	"planetapps/internal/marketsim"
)

// fetch returns status, body, and selected headers for one GET.
func fetch(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestNegotiatedRepresentations asserts the no-double-encoding contract:
// every document is served as its pre-encoded identity bytes, and — when
// the client negotiates gzip — as the snapshot-time compressed variant of
// those same bytes under the representation's own "-gz" ETag.
func TestNegotiatedRepresentations(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})
	s.SetComments(commentRun(7, 40)) // long enough to keep a gzip representation
	identity := map[string]string{"Accept-Encoding": "identity"}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	sawGzip := false
	for _, p := range []string{
		"/api/v1/stats",
		"/api/v1/apps",
		"/api/v1/apps?cursor=" + EncodeCursor(100),
		"/api/v1/apps/0",
		"/api/v1/apps/7",
		"/api/v1/apps/7/comments",
		"/api/v1/apps/8/comments",
	} {
		code, idBody, idHdr := fetch(t, ts.URL+p, identity)
		if code != 200 {
			t.Fatalf("%s: identity fetch status %d", p, code)
		}
		if got := idHdr.Get("Content-Encoding"); got != "" {
			t.Fatalf("%s: identity request got Content-Encoding %q", p, got)
		}
		ie := idHdr.Get("ETag")
		if ie == "" {
			t.Fatalf("%s: no ETag", p)
		}
		if got := idHdr.Get("X-API-Version"); got != "1" {
			t.Fatalf("%s: X-API-Version = %q, want 1", p, got)
		}

		// Same document negotiated as gzip: pre-compressed bytes that
		// inflate to exactly the identity body, under the -gz ETag.
		gzCode, gzBody, gzHdr := fetch(t, ts.URL+p, gz)
		if gzCode != 200 {
			t.Fatalf("%s: gzip fetch status %d", p, gzCode)
		}
		switch gzHdr.Get("Content-Encoding") {
		case "gzip":
			sawGzip = true
			if idHdr.Get("Vary") != "Accept-Encoding" || gzHdr.Get("Vary") != "Accept-Encoding" {
				t.Fatalf("%s: negotiated document without Vary: Accept-Encoding (%q, %q)", p, idHdr.Get("Vary"), gzHdr.Get("Vary"))
			}
			want := strings.TrimSuffix(ie, `"`) + `-gz"`
			if got := gzHdr.Get("ETag"); got != want {
				t.Fatalf("%s: gzip ETag = %q, want %q", p, got, want)
			}
			plain, err := gzipx.Decompress(gzBody)
			if err != nil {
				t.Fatalf("%s: served gzip does not inflate: %v", p, err)
			}
			if string(plain) != string(idBody) {
				t.Fatalf("%s: gzip variant inflates to different bytes", p)
			}
			if cl := gzHdr.Get("Content-Length"); cl != strconv.Itoa(len(gzBody)) {
				t.Fatalf("%s: gzip Content-Length %q vs %d wire bytes", p, cl, len(gzBody))
			}
		case "":
			// A document gzip cannot shrink has one representation: the
			// identity bytes under the identity ETag, and no Vary.
			if string(gzBody) != string(idBody) || gzHdr.Get("ETag") != ie {
				t.Fatalf("%s: identity fallback served different bytes/ETag", p)
			}
			if idHdr.Get("Vary") != "" || gzHdr.Get("Vary") != "" {
				t.Fatalf("%s: single-representation document sent Vary (%q, %q)", p, idHdr.Get("Vary"), gzHdr.Get("Vary"))
			}
		default:
			t.Fatalf("%s: unexpected Content-Encoding %q", p, gzHdr.Get("Content-Encoding"))
		}
	}
	if !sawGzip {
		t.Fatal("no document negotiated to gzip: the two-representation half went unexercised")
	}
}

// decodeEnvelope parses a v1 error body, failing the test on any shape
// deviation.
func decodeEnvelope(t *testing.T, body []byte) apiwire.ErrorJSON {
	t.Helper()
	var e apiwire.ErrorJSON
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("error body %q is not the v1 envelope: %v", body, err)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %q", body)
	}
	return e
}

// TestV1ErrorPaths is the table-driven sweep over every v1 error path.
func TestV1ErrorPaths(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	cases := []struct {
		name     string
		path     string
		wantCode int
		wantErr  string
	}{
		// The rows are named for the request; ?page= has one answer.
		{"bad-page-not-a-number", "/api/v1/apps?page=zebra", 400, "page_unsupported"},
		{"bad-page-negative", "/api/v1/apps?page=-3", 400, "page_unsupported"},
		{"page-out-of-range", "/api/v1/apps?page=99999", 400, "page_unsupported"},
		{"bad-cursor-garbage", "/api/v1/apps?cursor=%24%24not-base64%24%24", 400, "bad_cursor"},
		{"bad-cursor-wrong-payload", "/api/v1/apps?cursor=bm9wZQ", 400, "bad_cursor"},
		{"page-and-cursor-conflict", "/api/v1/apps?page=0&cursor=", 400, "page_unsupported"},
		{"bad-app-id", "/api/v1/apps/zebra", 400, "bad_app_id"},
		{"negative-app-id", "/api/v1/apps/-1", 400, "bad_app_id"},
		{"unknown-app", "/api/v1/apps/99999999", 404, "app_not_found"},
		{"unknown-app-comments", "/api/v1/apps/99999999/comments", 404, "app_not_found"},
		{"unknown-app-apk", "/api/v1/apps/99999999/apk", 404, "app_not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, hdr := fetch(t, ts.URL+tc.path, nil)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %q)", code, tc.wantCode, body)
			}
			if got := hdr.Get("X-API-Version"); got != "1" {
				t.Fatalf("X-API-Version = %q, want 1", got)
			}
			if got := hdr.Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", got)
			}
			if e := decodeEnvelope(t, body); e.Error.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", e.Error.Code, tc.wantErr)
			}
		})
	}
}

// TestV1RateLimit429 asserts a throttled request carries the envelope
// with a real retry_after_ms plus a Retry-After header.
func TestV1RateLimit429(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50, RatePerSec: 1, Burst: 2})
	hammer := func(path string) (int, []byte, http.Header) {
		for i := 0; i < 50; i++ {
			code, body, hdr := fetch(t, ts.URL+path, map[string]string{"X-Forwarded-For": "throttled-" + path})
			if code == http.StatusTooManyRequests {
				return code, body, hdr
			}
		}
		t.Fatalf("%s: never rate-limited", path)
		return 0, nil, nil
	}

	_, body, hdr := hammer("/api/v1/stats")
	e := decodeEnvelope(t, body)
	if e.Error.Code != "rate_limited" {
		t.Fatalf("code = %q, want rate_limited", e.Error.Code)
	}
	if e.Error.RetryAfterMS <= 0 || e.Error.RetryAfterMS > 2000 {
		t.Fatalf("retry_after_ms = %d, want a real sub-2s wait at 1 rps", e.Error.RetryAfterMS)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("v1 429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

// TestV1CursorWalksWholeCatalog pages the full catalog by cursor and
// checks the union is exactly the app set, in ID order, with no repeats.
func TestV1CursorWalksWholeCatalog(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 64})
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	nextID := int32(0)
	cursor := ""
	steps := 0
	for {
		var page CursorPageJSON
		code := getJSON(t, ts.URL+"/api/v1/apps?cursor="+cursor, &page)
		if code != 200 {
			t.Fatalf("cursor step %d: status %d", steps, code)
		}
		if page.Total != stats.Apps {
			t.Fatalf("total = %d, want %d", page.Total, stats.Apps)
		}
		for _, a := range page.Apps {
			if a.ID != nextID {
				t.Fatalf("cursor walk saw app %d, want %d (skip or repeat)", a.ID, nextID)
			}
			nextID++
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if steps++; steps > stats.Apps {
			t.Fatal("cursor walk does not terminate")
		}
	}
	if int(nextID) != stats.Apps {
		t.Fatalf("walked %d apps, want %d", nextID, stats.Apps)
	}
}

// TestV1CursorStableAcrossDayRoll interleaves AdvanceDay into a cursor
// walk: because cursors anchor on app IDs (append-only), the walk must
// still see every app exactly once — including apps born mid-walk, which
// land at the tail.
func TestV1CursorStableAcrossDayRoll(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 32})
	seen := map[int32]bool{}
	cursor := ""
	step := 0
	for {
		var page CursorPageJSON
		if code := getJSON(t, ts.URL+"/api/v1/apps?cursor="+cursor, &page); code != 200 {
			t.Fatalf("step %d: status %d", step, code)
		}
		for _, a := range page.Apps {
			if seen[a.ID] {
				t.Fatalf("app %d served twice across the day-roll", a.ID)
			}
			seen[a.ID] = true
		}
		// Roll the store mid-pagination, twice, at different walk depths.
		if step == 2 || step == 5 {
			if err := s.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if step++; step > 10000 {
			t.Fatal("walk does not terminate")
		}
	}
	// The walk must have covered the final catalog completely: the cursor
	// anchors on IDs, the catalog is append-only, and the tail pages are
	// served from the newest snapshot.
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if len(seen) != stats.Apps {
		t.Fatalf("saw %d distinct apps, final catalog has %d", len(seen), stats.Apps)
	}
	for id := int32(0); int(id) < stats.Apps; id++ {
		if !seen[id] {
			t.Fatalf("app %d skipped across the day-roll", id)
		}
	}
}

// TestV1CursorConditionalGet asserts cursor slices revalidate via ETags:
// an unchanged slice earns a 304 (with no body) on If-None-Match.
func TestV1CursorConditionalGet(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 32})
	code, _, hdr := fetch(t, ts.URL+"/api/v1/apps?cursor=", nil)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("cursor response without ETag")
	}
	code, body, _ := fetch(t, ts.URL+"/api/v1/apps?cursor=", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", code)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
}

// TestV1ChaosEnvelope asserts injected faults are rendered as the JSON
// envelope (with retry_after_ms on 503 bursts).
func TestV1ChaosEnvelope(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 50})
	// Every request faults: a one-rule always-on 503 burst with a
	// Retry-After hint.
	s.SetChaos(faultinject.New(faultinject.Scenario{
		Name: "all-503",
		Rules: []faultinject.Rule{{
			Route: apiwire.Prefix, Kind: faultinject.KindError, Prob: 1,
			Status: http.StatusServiceUnavailable, RetryAfter: 80 * time.Millisecond,
		}},
	}, 7, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, hdr := fetch(t, ts.URL+"/api/v1/stats", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("v1 status = %d, want 503", code)
	}
	e := decodeEnvelope(t, body)
	if e.Error.Code != "unavailable" {
		t.Fatalf("v1 chaos code = %q, want unavailable", e.Error.Code)
	}
	if e.Error.RetryAfterMS != 80 {
		t.Fatalf("retry_after_ms = %d, want 80", e.Error.RetryAfterMS)
	}
	if hdr.Get("X-API-Version") != "1" {
		t.Fatal("v1 chaos response missing X-API-Version")
	}

	// /metrics stays fault-free.
	for i := 0; i < 20; i++ {
		code, _, _ := fetch(t, ts.URL+"/metrics", nil)
		if code != 200 {
			t.Fatalf("/metrics faulted with %d", code)
		}
	}
}
