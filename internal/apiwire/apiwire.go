// Package apiwire is the single definition of the store's wire protocol:
// the /api/v1 route table, the scanners for everything a request can
// carry (app IDs, page numbers, limits, query values, If-None-Match
// lists, listing cursors), the JSON error envelope, the reading of the
// X-Forwarded-For client chain, and the path builders clients use. The
// store routes with it, the gateway classifies and answers with it, the
// edge cache categorizes documents with it, and the crawler and the load
// generator build their URLs with it — so a new route or error code is
// one edit, and every tier answers a malformed request with the same
// bytes.
//
// It imports the standard library only. Everything on a request's hot
// path (ParsePath, QueryValue, ETagMatch, DecodeCursor) is allocation
// free; the store's 0 allocs/op warm hit depends on that.
package apiwire

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

const (
	// Prefix roots every API route. Paths outside it — including the
	// un-versioned /api/* routes earlier releases served — are 404.
	Prefix = "/api/v1"
	// Version is the value of the X-API-Version header on every API
	// response, success or error.
	Version = "1"

	// StatsPath and ListPath are the two routes without an app ID.
	StatsPath = Prefix + "/stats"
	ListPath  = Prefix + "/apps"
)

// Kind identifies one route of the API.
type Kind int

// The routes. None is what ParsePath returns for everything else; it is
// also the number of routes, so tables indexed by Kind are [None]T.
const (
	Stats Kind = iota
	List
	Detail
	Comments
	APK
	Download
	Rate
	None
)

// routes is the route table. name labels the route in metrics; tail is
// what follows /apps/{id} on the single-app routes; read admits GET and
// HEAD, write admits POST.
var routes = [None]struct {
	name, tail  string
	read, write bool
}{
	Stats:    {name: "stats", read: true},
	List:     {name: "list", read: true},
	Detail:   {name: "detail", tail: "", read: true},
	Comments: {name: "comments", tail: "/comments", read: true, write: true},
	APK:      {name: "apk", tail: "/apk", read: true},
	Download: {name: "download", tail: "/download", write: true},
	Rate:     {name: "rate", tail: "/rate", write: true},
}

// String returns the route's metrics label ("stats", "list", "detail",
// "comments", "apk", "download", "rate").
func (k Kind) String() string {
	if k < 0 || k >= None {
		return "none"
	}
	return routes[k].name
}

// ParsePath matches one of the API paths:
//
//	/api/v1/stats
//	/api/v1/apps
//	/api/v1/apps/{id}[/comments|/apk|/download|/rate]
//
// kind is None for anything else, including an empty {id} segment or an
// unknown tail — those are 404 before the ID is looked at. For the {id}
// routes, id/idOK report the parsed non-negative int32; idOK false means
// the segment was present but not a valid ID, which is a 400 (BadAppID).
func ParsePath(p string) (kind Kind, id int32, idOK bool) {
	switch p {
	case StatsPath:
		return Stats, 0, false
	case ListPath:
		return List, 0, false
	}
	if !strings.HasPrefix(p, ListPath+"/") {
		return None, 0, false
	}
	seg := p[len(ListPath+"/"):]
	tail := ""
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg, tail = seg[:i], seg[i:]
	}
	if seg == "" {
		return None, 0, false
	}
	for kind = Detail; kind < None; kind++ {
		if routes[kind].tail == tail {
			id, idOK = ParseAppID(seg)
			return kind, id, idOK
		}
	}
	return None, 0, false
}

// AppPath builds the path of a single-app route (Detail, Comments, APK,
// Download, Rate) for app id.
func AppPath(kind Kind, id int32) string {
	return ListPath + "/" + strconv.FormatInt(int64(id), 10) + routes[kind].tail
}

// CursorPath builds the path of one cursor-addressed listing slice. An
// empty cursor starts the walk; limit <= 0 leaves the slice length to the
// server's page size.
func CursorPath(cursor string, limit int) string {
	p := ListPath + "?cursor=" + cursor
	if limit > 0 {
		p += "&limit=" + strconv.Itoa(limit)
	}
	return p
}

// AllowedMethods renders the Allow header of a route.
func AllowedMethods(kind Kind) string {
	switch r := routes[kind]; {
	case r.read && r.write:
		return "GET, HEAD, POST"
	case r.write:
		return "POST"
	default:
		return "GET, HEAD"
	}
}

// CheckMethod classifies a request method against a route. ok false means
// 405 (WriteMethodNotAllowed); write reports a POST to a route that takes
// one.
func CheckMethod(kind Kind, method string) (write, ok bool) {
	switch method {
	case http.MethodGet, http.MethodHead:
		return false, routes[kind].read
	case http.MethodPost:
		return routes[kind].write, routes[kind].write
	}
	return false, false
}

// ParseAppID parses a decimal non-negative int32 without strconv's
// error-object allocation on the failure path.
func ParseAppID(s string) (int32, bool) {
	if len(s) == 0 || len(s) > 10 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if v > math.MaxInt32 {
		return 0, false
	}
	return int32(v), true
}

// ParseLimit parses a ?limit= value: a positive integer.
func ParseLimit(s string) (int, bool) {
	v, ok := ParseAppID(s)
	return int(v), ok && v > 0
}

// QueryValue finds key's first value in a raw query string without
// building url.Values. found distinguishes "absent" from "present but
// empty" (?cursor= means "start a cursor walk"). Percent- or
// plus-escaped values take a slow path through url.QueryUnescape; the
// values the API defines (digits, base64url cursors) never need it.
// Keys are matched literally: the API's keys need no escaping, and an
// escaped spelling of one (?curs%6Fr=) is not that key.
func QueryValue(rawQuery, key string) (value string, found bool) {
	for i := 0; i < len(rawQuery); {
		start := i
		for i < len(rawQuery) && rawQuery[i] != '&' {
			i++
		}
		pair := rawQuery[start:i]
		i++
		if !strings.HasPrefix(pair, key) {
			continue
		}
		switch {
		case len(pair) == len(key):
			return "", true
		case pair[len(key)] == '=':
			v := pair[len(key)+1:]
			if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
				if u, err := url.QueryUnescape(v); err == nil {
					return u, true
				}
			}
			return v, true
		}
	}
	return "", false
}

// ETagMatch implements If-None-Match per RFC 9110: an exact match, a
// wildcard, or membership in a comma-separated list, using weak
// comparison (a W/ prefix on either side is ignored). The single-tag
// exact case — every conditional crawler in this repo — is one string
// compare; the list walk allocates nothing either.
func ETagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if inm == etag || inm == "*" {
		return true
	}
	for i := 0; i < len(inm); {
		start := i
		for i < len(inm) && inm[i] != ',' {
			i++
		}
		tag := inm[start:i]
		i++
		for len(tag) > 0 && (tag[0] == ' ' || tag[0] == '\t') {
			tag = tag[1:]
		}
		for len(tag) > 0 && (tag[len(tag)-1] == ' ' || tag[len(tag)-1] == '\t') {
			tag = tag[:len(tag)-1]
		}
		if strings.HasPrefix(tag, "W/") {
			tag = tag[2:]
		}
		if tag == etag {
			return true
		}
	}
	return false
}

// --- listing cursors -------------------------------------------------------

// cursorPrefix versions the cursor wire format so a format change can be
// detected instead of misparsed.
const cursorPrefix = "a"

// EncodeCursor renders the opaque listing cursor anchored at the *global
// app ID* next. The catalog is append-only, so an ID anchor — unlike a
// page number — addresses the same apps before and after a day-roll: a
// crawl paginating across a roll sees every app exactly once. Anchoring
// on the global ID (not a row index; the two coincide on an unsharded
// store) is also what makes a cursor meaningful on a partitioned shard,
// where it resumes at the first owned app at-or-after the anchor.
func EncodeCursor(next int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.Itoa(next)))
}

// DecodeCursor parses an opaque cursor; ok is false for anything not
// produced by EncodeCursor. Decoding goes through stack buffers — a
// well-formed cursor ("a" + decimal app ID) is at most 12 bytes decoded,
// so anything longer is rejected before any work.
func DecodeCursor(cur string) (int, bool) {
	if len(cur) > 24 || base64.RawURLEncoding.DecodedLen(len(cur)) > 18 {
		return 0, false
	}
	var src [24]byte
	var dst [18]byte
	n, err := base64.RawURLEncoding.Decode(dst[:], src[:copy(src[:], cur)])
	if err != nil || n < len(cursorPrefix)+1 || string(dst[:len(cursorPrefix)]) != cursorPrefix {
		return 0, false
	}
	var v int64
	for _, c := range dst[len(cursorPrefix):n] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > math.MaxInt32 {
			return 0, false
		}
	}
	return int(v), true
}

// --- error envelope --------------------------------------------------------

// ErrorBody is the payload of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS carries the server's backoff request in milliseconds —
	// finer-grained than the whole-second Retry-After header, which a
	// simulation stepping in milliseconds would otherwise round up into
	// thousand-fold stalls.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorJSON is the error envelope: {"error":{"code","message",...}}.
type ErrorJSON struct {
	Error ErrorBody `json:"error"`
}

// WriteError renders the error envelope. retryAfter > 0 additionally sets
// the Retry-After header (ceiling seconds, minimum 1 — the header cannot
// express sub-second waits; the envelope's retry_after_ms can).
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-API-Version", Version)
	h.Set("Cache-Control", "no-store")
	e := ErrorJSON{Error: ErrorBody{Code: code, Message: msg}}
	if retryAfter > 0 {
		h.Set("Retry-After", strconv.FormatInt(max(int64((retryAfter+time.Second-1)/time.Second), 1), 10))
		e.Error.RetryAfterMS = max(int64(retryAfter/time.Millisecond), 1)
	}
	w.WriteHeader(status)
	body, err := json.Marshal(e)
	if err != nil {
		panic(err) // two strings and an int cannot fail to encode
	}
	w.Write(append(body, '\n')) //nolint:errcheck // client gone; nothing useful to do
}

// Error is one API failure, ready to render.
type Error struct {
	Status  int
	Code    string
	Message string
}

// Write renders e as the error envelope.
func (e *Error) Write(w http.ResponseWriter) {
	WriteError(w, e.Status, e.Code, e.Message, 0)
}

// The request-grammar failures every tier answers identically.
var (
	BadAppID = &Error{http.StatusBadRequest, "bad_app_id", "app id must be a non-negative integer"}
	BadLimit = &Error{http.StatusBadRequest, "bad_limit", "limit must be a positive integer"}
	// PageUnsupported answers ?page= in any form: the listing has one
	// dialect, and a page-walker must fail loudly, not loop on slice 0.
	PageUnsupported = &Error{http.StatusBadRequest, "page_unsupported", "the listing has no page numbers; paginate with cursors"}
)

// WriteMethodNotAllowed answers 405 for method on a known route, with the
// route's Allow header.
func WriteMethodNotAllowed(w http.ResponseWriter, kind Kind, method string) {
	allow := AllowedMethods(kind)
	w.Header().Set("Allow", allow)
	WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		"method "+method+" is not supported by this resource; allowed: "+allow, 0)
}

// --- client identity -------------------------------------------------------

// ClientKey identifies the requesting client for rate limiting and
// per-client history: the originating hop of X-Forwarded-For if present
// (requests arriving via a proxy, the edge or the gateway), else the
// remote IP. Only the first hop counts — "client, proxy1, proxy2" and
// "client, proxy3" are the same client reached through different chains
// and must share one bucket.
func ClientKey(r *http.Request) string {
	first, _, _ := strings.Cut(r.Header.Get("X-Forwarded-For"), ",")
	if k := strings.TrimSpace(first); k != "" {
		return k
	}
	return remoteHost(r)
}

// ForwardedFor is the X-Forwarded-For value a tier sends upstream: the
// chain it received, extended by the hop that reached it, so that
// ClientKey upstream is ClientKey here and a client lands in the same
// bucket whichever tiers it came through. A chain whose first hop is
// empty names no client and is replaced by the remote address; a request
// with no remote address (an in-memory transport) adds no hop.
func ForwardedFor(r *http.Request) string {
	xff, host := r.Header.Get("X-Forwarded-For"), remoteHost(r)
	if first, _, _ := strings.Cut(xff, ","); strings.TrimSpace(first) == "" {
		return host
	}
	if host == "" {
		return xff
	}
	return xff + ", " + host
}

// remoteHost is r.RemoteAddr without its port; an address that has none
// is returned whole.
func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
