package fleet

import (
	"io"
	"net/http"
	"regexp"
	"testing"
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
		{"GET", "/api/v1/apps?page=0&page=1", "", 200},
		{"GET", "/api/v1/apps?page=0&cursor", "", 400},
		{"GET", "/api/v1/apps?cursor=&limit=0", "", 400},
		{"GET", "/api/v1/apps?page=x", "", 400},
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
// 4-shard gateway and requires the same status, Allow header and body
// (next_cursor aside: it is opaque and topology-specific by design). Both
// tiers parse with internal/apiwire, so this is the test that fails when
// one of them grows a private opinion about the grammar.
func TestGatewayAnswersOddRequestsLikeASingleNode(t *testing.T) {
	const pageSize = 20
	single := singleNode(t, pageSize).Handler()
	gateway := newFleet(t, 4, pageSize).Handler()

	statsResp, _ := get(t, single, "/api/v1/stats", nil)
	statsTag := statsResp.Header.Get("Etag")
	if statsTag == "" {
		t.Fatal("stats response without an ETag")
	}
	reqs := oddRequests(statsTag)

	nextCursor := regexp.MustCompile(`,"next_cursor":"[^"]*"`)
	do := func(h http.Handler, rq oddRequest) (int, string, string) {
		req, err := http.NewRequest(rq.method, "http://test"+rq.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rq.inm != "" {
			req.Header.Set("If-None-Match", rq.inm)
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
		return resp.StatusCode, resp.Header.Get("Allow"), nextCursor.ReplaceAllString(string(body), "")
	}
	for _, rq := range reqs {
		codeS, allowS, bodyS := do(single, rq)
		codeG, allowG, bodyG := do(gateway, rq)
		name := rq.method + " " + rq.path
		if rq.inm != "" {
			name += " [If-None-Match: " + rq.inm + "]"
		}
		if codeS != rq.want {
			t.Errorf("%s: single node answered %d, want %d (%s)", name, codeS, rq.want, bodyS)
		}
		if codeG != codeS || allowG != allowS || bodyG != bodyS {
			t.Errorf("%s: gateway differs from a single node\n  single  %d Allow=%q %s\n  gateway %d Allow=%q %s",
				name, codeS, allowS, bodyS, codeG, allowG, bodyG)
		}
	}
}
