package apiwire

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// TestRouteTable pins the route table: every route's path, metrics label,
// Allow header and method verdicts, and that what the builders emit is
// what the parser accepts.
func TestRouteTable(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		path  string
		name  string
		allow string
	}{
		{Stats, "/api/v1/stats", "stats", "GET, HEAD"},
		{List, "/api/v1/apps", "list", "GET, HEAD"},
		{Detail, "/api/v1/apps/42", "detail", "GET, HEAD"},
		{Comments, "/api/v1/apps/42/comments", "comments", "GET, HEAD, POST"},
		{APK, "/api/v1/apps/42/apk", "apk", "GET, HEAD"},
		{Download, "/api/v1/apps/42/download", "download", "POST"},
		{Rate, "/api/v1/apps/42/rate", "rate", "POST"},
	} {
		kind, id, idOK := ParsePath(tc.path)
		if kind != tc.kind {
			t.Fatalf("ParsePath(%q) = %v, want %v", tc.path, kind, tc.kind)
		}
		if kind >= Detail {
			if !idOK || id != 42 {
				t.Fatalf("ParsePath(%q) id = %d, %v", tc.path, id, idOK)
			}
			if got := AppPath(kind, 42); got != tc.path {
				t.Fatalf("AppPath(%v, 42) = %q, want %q", kind, got, tc.path)
			}
		}
		if kind.String() != tc.name {
			t.Fatalf("%v.String() = %q, want %q", tc.kind, kind.String(), tc.name)
		}
		if got := AllowedMethods(kind); got != tc.allow {
			t.Fatalf("AllowedMethods(%v) = %q, want %q", kind, got, tc.allow)
		}
		for _, method := range []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS"} {
			write, ok := CheckMethod(kind, method)
			if want := strings.Contains(", "+tc.allow+",", ", "+method+","); ok != want {
				t.Fatalf("CheckMethod(%v, %s) ok = %v, Allow is %q", kind, method, ok, tc.allow)
			}
			if write != (ok && method == "POST") {
				t.Fatalf("CheckMethod(%v, %s) write = %v", kind, method, write)
			}
		}
	}
	if got := CursorPath("YTc", 3); got != "/api/v1/apps?cursor=YTc&limit=3" {
		t.Fatalf("CursorPath = %q", got)
	}
	if got := CursorPath("", 0); got != "/api/v1/apps?cursor=" {
		t.Fatalf("CursorPath = %q", got)
	}
	if None.String() != "none" {
		t.Fatalf("None.String() = %q", None.String())
	}
}

// TestWriteErrorBytes pins the envelope on the wire, byte for byte.
func TestWriteErrorBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, "rate_limited", "slow <down>", 1500*time.Millisecond)
	if rec.Code != 429 {
		t.Fatalf("status %d", rec.Code)
	}
	want := `{"error":{"code":"rate_limited","message":"slow \u003cdown\u003e","retry_after_ms":1500}}` + "\n"
	if rec.Body.String() != want {
		t.Fatalf("body %q, want %q", rec.Body.String(), want)
	}
	for k, v := range map[string]string{
		"Content-Type": "application/json", "X-API-Version": "1",
		"Cache-Control": "no-store", "Retry-After": "2",
	} {
		if got := rec.Header().Get(k); got != v {
			t.Fatalf("%s = %q, want %q", k, got, v)
		}
	}

	rec = httptest.NewRecorder()
	WriteMethodNotAllowed(rec, Comments, "PUT")
	want = `{"error":{"code":"method_not_allowed","message":"method PUT is not supported by this resource; allowed: GET, HEAD, POST"}}` + "\n"
	if rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD, POST" || rec.Body.String() != want {
		t.Fatalf("405: %d Allow=%q %q", rec.Code, rec.Header().Get("Allow"), rec.Body.String())
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("Retry-After on an error without a wait")
	}

	rec = httptest.NewRecorder()
	BadAppID.Write(rec)
	want = `{"error":{"code":"bad_app_id","message":"app id must be a non-negative integer"}}` + "\n"
	if rec.Code != 400 || rec.Body.String() != want {
		t.Fatalf("BadAppID: %d %q", rec.Code, rec.Body.String())
	}
}

// TestScannersDoNotAllocate pins what the store's 0 allocs/op warm hit
// rests on.
func TestScannersDoNotAllocate(t *testing.T) {
	cur := EncodeCursor(123456)
	allocs := testing.AllocsPerRun(200, func() {
		if kind, id, ok := ParsePath("/api/v1/apps/123456/comments"); kind != Comments || id != 123456 || !ok {
			t.Fatal("ParsePath")
		}
		if v, ok := QueryValue("limit=5&cursor=&page=7", "page"); v != "7" || !ok {
			t.Fatal("QueryValue")
		}
		if !ETagMatch(`W/"a", "b" ,	"c"`, `"c"`) {
			t.Fatal("ETagMatch")
		}
		if v, ok := DecodeCursor(cur); v != 123456 || !ok {
			t.Fatal("DecodeCursor")
		}
		if _, ok := CheckMethod(Detail, "GET"); !ok || AllowedMethods(Rate) != "POST" {
			t.Fatal("CheckMethod")
		}
	})
	if allocs != 0 {
		t.Fatalf("request scanners allocated %.0f times, want 0", allocs)
	}
}

// --- ParsePath ---------------------------------------------------------------

// naiveParsePath is the route table said the obvious way: split on "/",
// count segments, look the tail up in a map, parse the id with strconv.
func naiveParsePath(p string) (Kind, int32, bool) {
	parts := strings.Split(p, "/")
	if len(parts) < 4 || parts[0] != "" || parts[1] != "api" || parts[2] != "v1" {
		return None, 0, false
	}
	if len(parts) == 4 {
		switch parts[3] {
		case "stats":
			return Stats, 0, false
		case "apps":
			return List, 0, false
		}
		return None, 0, false
	}
	if parts[3] != "apps" || len(parts) > 6 || parts[4] == "" {
		return None, 0, false
	}
	kind := Detail
	if len(parts) == 6 {
		var ok bool
		kind, ok = map[string]Kind{"comments": Comments, "apk": APK, "download": Download, "rate": Rate}[parts[5]]
		if !ok {
			return None, 0, false
		}
	}
	// ParseUint takes digits only, like the scanner; the scanner also
	// refuses more than ten of them, leading zeros or not.
	v, err := strconv.ParseUint(parts[4], 10, 31)
	if err != nil || len(parts[4]) > 10 {
		return kind, 0, false
	}
	return kind, int32(v), true
}

var pathSeeds = []string{
	"/api/v1/stats", "/api/v1/apps", "/api/v1/apps/0", "/api/v1/apps/7/comments", "/api/v1/apps/7/apk",
	"/api/v1/apps/7/download", "/api/v1/apps/7/rate", "/api/v1/apps/2147483647", "/api/v1/apps/2147483648",
	"/api/v1/apps/12345678901", "/api/v1/apps/0000000007", "/api/v1/apps/00000000007",
	"/api/v1/apps/xyz", "/api/v1/apps/xyz/bogus", "/api/v1/apps//comments", "/api/v1/apps/", "/api/v1/apps/3/",
	"/api/v1/apps/3/comments/", "/api/v1/apps/3/comments/4", "/api/v1/apps/-1", "/api/v1/apps/+1", "/api/v1/apps/1_0",
	"/api/v1/apps/٣", "/api/v1/stats/", "/api/v1/stat", "/api/v1/appsx", "/api/v1/", "/api/v1", "/api/", "/api",
	"/api/stats", "/api/apps", "/api/apps/3", "/api/v2/stats", "/api/v1/v1/stats", "//api/v1/stats", "api/v1/stats",
	"/API/v1/stats", "/api/v1/apps/3/Comments", "/metrics", "/", "", "/api/v1/apps/3/apk\x00", "/api/v1/apps/ 3",
}

func TestParsePathAgreesWithNaive(t *testing.T) {
	for _, p := range pathSeeds {
		agreePath(t, p)
	}
}

func agreePath(t *testing.T, p string) {
	t.Helper()
	kind, id, idOK := ParsePath(p)
	wk, wid, wok := naiveParsePath(p)
	if kind != wk || id != wid || idOK != wok {
		t.Fatalf("ParsePath(%q) = %v, %d, %v; the naive parser says %v, %d, %v", p, kind, id, idOK, wk, wid, wok)
	}
}

// FuzzParsePath holds the substring-compare parser to the naive one on any
// path. pathSeeds is its corpus, so a plain `go test` replays every seed;
// CI adds a fixed -fuzz budget.
func FuzzParsePath(f *testing.F) {
	for _, p := range pathSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) { agreePath(t, p) })
}

// --- QueryValue --------------------------------------------------------------

var querySeeds = []string{
	"", "cursor", "cursor=", "cursor=YTc", "cursor&limit=3", "limit=3&cursor", "page=0&page=1", "page=&page=1",
	"curs%6Fr=", "cursorx=1&cursor=2", "xcursor=1", "cursor=a=b", "&&cursor=1&&", "=x&cursor=1", "cursor=a%20b",
	"cursor=a+b", "cursor=%zz", "cursor=1;limit=2", "limit=3&cursor=YTc&page=1", "page=1&limit=%33", "limit", "page=٣",
}

var queryKeys = []string{"cursor", "page", "limit"}

// agreeQuery compares QueryValue with url.ParseQuery wherever the two are
// meant to agree. They deliberately differ on escaped keys (QueryValue
// matches keys literally), on values that do not unescape (QueryValue
// hands back the raw text, ParseQuery drops the pair) and on semicolons
// (ParseQuery refuses the pair): inputs with any of those are skipped.
func agreeQuery(t *testing.T, raw string, key string) {
	t.Helper()
	if strings.Contains(raw, ";") {
		t.Skip("semicolon")
	}
	for _, pair := range strings.Split(raw, "&") {
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			t.Skip("escaped key")
		}
		if _, err := url.QueryUnescape(v); err != nil {
			t.Skip("value does not unescape")
		}
	}
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", raw, err)
	}
	want, wantFound := "", false
	if vs, ok := vals[key]; ok {
		want, wantFound = vs[0], true
	}
	if got, found := QueryValue(raw, key); got != want || found != wantFound {
		t.Fatalf("QueryValue(%q, %q) = %q, %v; url.ParseQuery says %q, %v", raw, key, got, found, want, wantFound)
	}
}

func TestQueryValueAgreesWithParseQuery(t *testing.T) {
	for _, raw := range querySeeds {
		for _, key := range queryKeys {
			t.Run(key+"/"+raw, func(t *testing.T) { agreeQuery(t, raw, key) })
		}
	}
	// The deliberate differences, pinned.
	if v, found := QueryValue("curs%6Fr=x", "cursor"); found {
		t.Fatalf("escaped key matched: %q", v)
	}
	if v, found := QueryValue("cursor=%zz", "cursor"); !found || v != "%zz" {
		t.Fatalf("bad escape: %q, %v", v, found)
	}
}

// FuzzQueryValue holds the in-place scan to url.ParseQuery on every query
// string without an escaped key.
func FuzzQueryValue(f *testing.F) {
	for _, raw := range querySeeds {
		for i := range queryKeys {
			f.Add(raw, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, raw string, key uint8) {
		agreeQuery(t, raw, queryKeys[int(key)%len(queryKeys)])
	})
}

// --- cursors -----------------------------------------------------------------

func TestCursorRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, 63, 64, 12345, 1 << 30, math.MaxInt32} {
		got, ok := DecodeCursor(EncodeCursor(v))
		if !ok || got != v {
			t.Fatalf("round-trip(%d) = %d, %v", v, got, ok)
		}
	}
	for _, bad := range []string{"", "***", "bm9wZQ", "YQ" /* "a" */, "YS0x" /* "a-1" */, "\x00",
		EncodeCursor(math.MaxInt32 + 1), EncodeCursor(-1), strings.Repeat("Y", 25)} {
		if _, ok := DecodeCursor(bad); ok {
			t.Fatalf("DecodeCursor(%q) accepted", bad)
		}
	}
}

// FuzzCursorRoundTrip: decode∘encode is the identity on every valid
// anchor and refuses every other int; decode never panics and never
// yields an anchor outside [0, MaxInt32].
func FuzzCursorRoundTrip(f *testing.F) {
	for _, v := range []int{0, 7, 12345, math.MaxInt32, math.MaxInt32 + 1, -1, math.MinInt64} {
		f.Add(v, EncodeCursor(v))
	}
	for _, raw := range []string{"", "***", "bm9wZQ", "YQ", "YTAwNw" /* "a007" */, "YTc=", "YTc\n", strings.Repeat("Y", 24)} {
		f.Add(0, raw)
	}
	f.Fuzz(func(t *testing.T, id int, raw string) {
		got, ok := DecodeCursor(EncodeCursor(id))
		if valid := id >= 0 && id <= math.MaxInt32; ok != valid || (ok && got != id) {
			t.Fatalf("DecodeCursor(EncodeCursor(%d)) = %d, %v", id, got, ok)
		}
		if v, ok := DecodeCursor(raw); ok {
			if v < 0 || v > math.MaxInt32 {
				t.Fatalf("DecodeCursor(%q) = %d, outside the app ID range", raw, v)
			}
			if again, ok := DecodeCursor(EncodeCursor(v)); !ok || again != v {
				t.Fatalf("DecodeCursor(%q) = %d does not survive re-encoding", raw, v)
			}
		}
	})
}

// --- ETagMatch ---------------------------------------------------------------

// splitETagMatch is the strings.Split implementation the gateway carried
// before apiwire, kept as the reference.
func splitETagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if inm == etag || inm == "*" {
		return true
	}
	for _, tag := range strings.Split(inm, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

var etagSeeds = [][2]string{
	{"", `"a"`}, {`"a"`, `"a"`}, {"*", `"a"`}, {`W/"a"`, `"a"`}, {`"a"`, `W/"a"`}, {`W/"x" , "y"`, `"y"`},
	{`W/"x" , "y"`, `"x"`}, {`W/"x" , "y"`, `"z"`}, {"\"a\",\t\"b\"", `"b"`}, {`"a",`, `"a"`}, {`,,`, `"a"`}, {`"a" "b"`, `"b"`},
	{`W/W/"a"`, `"a"`}, {`w/"a"`, `"a"`}, {` * `, `"a"`}, {`"a,b"`, `"a`}, {`"p0-n100-v42-gz"`, `"p0-n100-v42"`},
}

// agreeETag compares the in-place list walk with the reference. The walk
// trims RFC 9110 optional whitespace — space and tab — where the reference
// trimmed everything unicode calls a space; inputs carrying other
// whitespace are skipped. So is the empty ETag, which no server mints and
// which the two treat differently after a trailing comma.
func agreeETag(t *testing.T, inm, etag string) {
	t.Helper()
	if etag == "" {
		t.Skip("empty ETag")
	}
	if strings.ContainsFunc(inm, func(r rune) bool { return unicode.IsSpace(r) && r != ' ' && r != '\t' }) {
		t.Skip("whitespace other than SP and HTAB")
	}
	if got, want := ETagMatch(inm, etag), splitETagMatch(inm, etag); got != want {
		t.Fatalf("ETagMatch(%q, %q) = %v, the strings.Split reference says %v", inm, etag, got, want)
	}
}

func TestETagMatchAgreesWithReference(t *testing.T) {
	for _, s := range etagSeeds {
		t.Run(s[0], func(t *testing.T) { agreeETag(t, s[0], s[1]) })
	}
}

// FuzzETagMatch holds the allocation-free If-None-Match walk to the
// strings.Split one it replaced.
func FuzzETagMatch(f *testing.F) {
	for _, s := range etagSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, inm, etag string) { agreeETag(t, inm, etag) })
}

// TestClientKey pins the one reading of the client chain: the first hop of
// X-Forwarded-For, trimmed, else the remote address without its port; and
// that the chain ForwardedFor sends upstream keeps that key.
func TestClientKey(t *testing.T) {
	cases := []struct {
		xff, remote string
		key, fwd    string
	}{
		{"", "10.0.0.1:4321", "10.0.0.1", "10.0.0.1"},
		{"", "bare-addr", "bare-addr", "bare-addr"}, // port-less RemoteAddr
		{"", "[::1]:5000", "::1", "::1"},
		{"", "", "", ""}, // in-memory transport
		{"1.2.3.4", "10.0.0.1:4321", "1.2.3.4", "1.2.3.4, 10.0.0.1"},
		{"::1", "", "::1", "::1"},
		// Multi-hop chains: only the originating client counts, so the
		// same client through different proxy chains shares one bucket.
		{"1.2.3.4, proxy-a, proxy-b", "10.0.0.1:4321", "1.2.3.4", "1.2.3.4, proxy-a, proxy-b, 10.0.0.1"},
		{"1.2.3.4,proxy-c", "10.0.0.1:4321", "1.2.3.4", "1.2.3.4,proxy-c, 10.0.0.1"},
		{"a , b", "[::1]:5000", "a", "a , b, ::1"},
		{"  1.2.3.4  , proxy-a", "10.0.0.1:4321", "1.2.3.4", "  1.2.3.4  , proxy-a, 10.0.0.1"},
		// Empty first hop: fall back to the remote address.
		{" , proxy-a", "10.0.0.1:4321", "10.0.0.1", "10.0.0.1"},
		{",", "[::1]:5000", "::1", "::1"},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, StatsPath, nil)
		r.RemoteAddr = c.remote
		if c.xff != "" {
			r.Header.Set("X-Forwarded-For", c.xff)
		}
		if got := ClientKey(r); got != c.key {
			t.Errorf("ClientKey(xff=%q, remote=%q) = %q, want %q", c.xff, c.remote, got, c.key)
		}
		fwd := ForwardedFor(r)
		if fwd != c.fwd {
			t.Errorf("ForwardedFor(xff=%q, remote=%q) = %q, want %q", c.xff, c.remote, fwd, c.fwd)
		}
		// One hop further upstream the key is unchanged.
		up := httptest.NewRequest(http.MethodGet, StatsPath, nil)
		up.RemoteAddr = "192.0.2.9:80"
		if fwd != "" {
			up.Header.Set("X-Forwarded-For", fwd)
			if got := ClientKey(up); got != c.key {
				t.Errorf("ClientKey after forwarding %q = %q, want %q", fwd, got, c.key)
			}
		}
	}
}
