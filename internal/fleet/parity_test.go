package fleet

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"planetapps/internal/edgecache"
)

// oddRequest is one request from the corners of the path, query and header
// grammar, with the status a store answers it with.
type oddRequest struct {
	method, path string
	inm          string // If-None-Match
	want         int
}

// oddRequests is the table; statsTag is the store's current stats ETag.
func oddRequests(statsTag string) []oddRequest {
	reqs := []oddRequest{
		// Malformed single-app paths: an unknown tail or an empty id
		// segment is 404 before the id is looked at; a bad id alone is 400.
		{"GET", "/api/v1/apps/xyz/bogus", "", 404},
		{"GET", "/api/v1/apps//comments", "", 404},
		{"GET", "/api/v1/apps/", "", 404},
		{"GET", "/api/v1/apps/3/", "", 404},
		{"GET", "/api/v1/apps/xyz", "", 400},
		{"GET", "/api/v1/apps/12345678901", "", 400},
		{"POST", "/api/v1/apps/xyz/rate", "", 400},
		// The un-versioned routes are gone, as are near misses of the prefix.
		{"GET", "/api/apps", "", 404},
		{"GET", "/api/stats", "", 404},
		{"GET", "/api/apps/3", "", 404},
		{"GET", "/api", "", 404},
		{"GET", "/api/v1", "", 404},
		{"GET", "/api/v1/", "", 404},
		// Query grammar: a bare key is present-and-empty, keys are matched
		// literally, the first value wins.
		{"GET", "/api/v1/apps?cursor&limit=3", "", 200},
		{"GET", "/api/v1/apps?curs%6Fr=", "", 200},
		{"GET", "/api/v1/apps?cursor=&limit=0", "", 400},
		// The bare listing is the first slice.
		{"GET", "/api/v1/apps", "", 200},
		{"GET", "/api/v1/apps?limit=3", "", 200},
		// The listing has no page numbers: ?page= in any form, alone or
		// beside a cursor, is page_unsupported on every tier.
		{"GET", "/api/v1/apps?page=0", "", 400},
		{"GET", "/api/v1/apps?page=1", "", 400},
		{"GET", "/api/v1/apps?page=99999", "", 400},
		{"GET", "/api/v1/apps?page=x", "", 400},
		{"GET", "/api/v1/apps?page=", "", 400},
		{"GET", "/api/v1/apps?page", "", 400},
		{"GET", "/api/v1/apps?page=0&page=1", "", 400},
		{"GET", "/api/v1/apps?page=0&cursor=", "", 400},
		{"GET", "/api/v1/apps?cursor=&page=2", "", 400},
		{"GET", "/api/v1/apps?page=1&cursor=%24garbage&limit=0", "", 400},
		// If-None-Match lists: weak tags, optional whitespace.
		{"GET", "/api/v1/stats", `W/"x" , ` + statsTag, 304},
		{"GET", "/api/v1/stats", `"x",W/` + statsTag, 304},
		{"GET", "/api/v1/stats", `W/"x" , "y"`, 200},
	}
	// Wrong methods on every route.
	for _, path := range []string{
		"/api/v1/stats", "/api/v1/apps", "/api/v1/apps/3", "/api/v1/apps/3/comments",
		"/api/v1/apps/3/apk", "/api/v1/apps/3/download", "/api/v1/apps/3/rate",
		"/api/v1/apps/xyz", // 405 outranks the bad id
	} {
		for _, method := range []string{"DELETE", "PUT", "PATCH"} {
			reqs = append(reqs, oddRequest{method, path, "", 405})
		}
	}
	for _, path := range []string{"/api/v1/stats", "/api/v1/apps", "/api/v1/apps/3", "/api/v1/apps/3/apk"} {
		reqs = append(reqs, oddRequest{"POST", path, "", 405})
	}
	for _, path := range []string{"/api/v1/apps/3/download", "/api/v1/apps/3/rate"} {
		reqs = append(reqs, oddRequest{"GET", path, "", 405})
	}
	return reqs
}

// TestGatewayAnswersOddRequestsLikeASingleNode sends requests from the
// corners of the path, query and header grammar to a single node and to a
// 4-shard gateway, each once plain and once accepting gzip, and requires
// the same status, Allow, Content-Encoding and Vary headers and body
// (next_cursor aside: it is opaque and topology-specific by design). Both
// tiers parse with internal/apiwire, so this is the test that fails when
// one of them grows a private opinion about the grammar.
func TestGatewayAnswersOddRequestsLikeASingleNode(t *testing.T) {
	const pageSize = 20
	single := singleNode(t, pageSize).Handler()
	gateway := newFleet(t, 4, pageSize).Gateway

	statsResp, _ := get(t, single, "/api/v1/stats", nil)
	statsTag := statsResp.Header.Get("Etag")
	if statsTag == "" {
		t.Fatal("stats response without an ETag")
	}
	reqs := oddRequests(statsTag)

	nextCursor := regexp.MustCompile(`,"next_cursor":"[^"]*"`)
	// answer is what must match across tiers: status, the headers that
	// describe the body's form, and the body.
	type answer struct {
		code                  int
		allow, encoding, vary string
		body                  string
	}
	do := func(h http.Handler, rq oddRequest, acceptEncoding string) answer {
		req, err := http.NewRequest(rq.method, "http://test"+rq.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rq.inm != "" {
			req.Header.Set("If-None-Match", rq.inm)
		}
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := (&http.Client{Transport: HandlerTransport{Handler: h}}).Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", rq.method, rq.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read: %v", rq.method, rq.path, err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Content-Encoding"),
			resp.Header.Get("Vary"), nextCursor.ReplaceAllString(string(body), "")}
	}
	for _, rq := range reqs {
		for _, ae := range []string{"", "gzip"} {
			s, g := do(single, rq, ae), do(gateway, rq, ae)
			name := rq.method + " " + rq.path
			if rq.inm != "" {
				name += " [If-None-Match: " + rq.inm + "]"
			}
			if ae != "" {
				name += " [Accept-Encoding: " + ae + "]"
			}
			if s.code != rq.want {
				t.Errorf("%s: single node answered %d, want %d (%s)", name, s.code, rq.want, s.body)
			}
			if g != s {
				t.Errorf("%s: gateway differs from a single node\n  single  %+v\n  gateway %+v", name, s, g)
			}
			// No document in this table is long enough to have a gzip
			// representation; a listing slice never has one.
			if s.encoding != "" || s.vary != "" {
				t.Errorf("%s: Content-Encoding %q, Vary %q from a one-representation answer", name, s.encoding, s.vary)
			}
			if strings.Contains(rq.path, "page") && !strings.Contains(s.body, `"code":"page_unsupported"`) {
				t.Errorf("%s: want page_unsupported, got %s", name, s.body)
			}
		}
	}
}

// TestBareListingIsTheFirstCursorSlice: /api/v1/apps and
// /api/v1/apps?cursor= are two spellings of one document — same status,
// bytes (next_cursor included: one tier minted both), ETag, day and
// freshness — on a node, through a gateway over one shard and over four,
// and through an edge in front of that gateway, cold and cached.
func TestBareListingIsTheFirstCursorSlice(t *testing.T) {
	const pageSize = 20
	gateway := newFleet(t, 4, pageSize).Gateway
	edge, err := edgecache.New(edgecache.Config{
		Origin:          "http://gateway",
		OriginTransport: HandlerTransport{Handler: gateway},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{
		{"node", singleNode(t, pageSize).Handler()},
		{"gateway/1", newFleet(t, 1, pageSize).Gateway},
		{"gateway/4", gateway},
		{"edge, cold", edge.Handler()},
		{"edge, cached", edge.Handler()},
	} {
		for _, suffix := range []string{"", "limit=7"} {
			bare, cursor := "/api/v1/apps", "/api/v1/apps?cursor="
			if suffix != "" {
				bare, cursor = bare+"?"+suffix, cursor+"&"+suffix
			}
			wantResp, want := get(t, tier.h, cursor, nil)
			gotResp, got := get(t, tier.h, bare, nil)
			if wantResp.StatusCode != http.StatusOK || gotResp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s answered %d, %s answered %d", tier.name, bare, gotResp.StatusCode, cursor, wantResp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s and %s differ\n  %.200s\n  %.200s", tier.name, bare, cursor, got, want)
			}
			for _, k := range []string{"Etag", "X-Store-Day", "Cache-Control", "Content-Encoding", "Vary"} {
				if g, w := gotResp.Header.Get(k), wantResp.Header.Get(k); g != w || (k == "Etag" && g == "") {
					t.Errorf("%s: %s: %q from %s, %q from %s", tier.name, k, g, bare, w, cursor)
				}
			}
			if r, _ := get(t, tier.h, bare, http.Header{"If-None-Match": {wantResp.Header.Get("Etag")}}); r.StatusCode != http.StatusNotModified {
				t.Errorf("%s: %s revalidated with %s's ETag: %d, want 304", tier.name, bare, cursor, r.StatusCode)
			}
		}
	}
}
