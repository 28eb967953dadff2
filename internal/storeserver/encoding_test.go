package storeserver

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/gzipx"
)

// encGet issues one in-process GET with explicit negotiation headers
// (bypassing the Go client's transparent gzip, which would hide the wire
// representation this file is about).
func encGet(t *testing.T, h http.Handler, path, acceptEncoding, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// commentRun fabricates k comments on app. Past about six a stream is
// long enough to keep a gzip representation.
func commentRun(app catalog.AppID, k int) []comments.Comment {
	cs := make([]comments.Comment, k)
	at := time.Unix(1356998400, 0)
	for j := range cs {
		at = at.Add(97 * time.Minute)
		cs[j] = comments.Comment{User: catalog.UserID(1000 + 37*j), App: app, Rating: int8(1 + j%5), Time: at}
	}
	return cs
}

// TestEncodingETagInterplay is the satellite table test: every
// (Accept-Encoding, If-None-Match) combination must produce the right
// status, Content-Encoding, and Vary (sent only by documents that kept a
// gzip representation) — and keep doing so across an AdvanceDay boundary
// for both carried and rebuilt documents. A validator minted for one
// representation must never 304 the other.
func TestEncodingETagInterplay(t *testing.T) {
	s := etagTestServer(t, Config{PageSize: 50})
	h := s.Handler()
	// The one kind of document with two representations: a comment stream
	// long enough for gzip to pay, attached before the roll so it is carried.
	s.SetComments(commentRun(2, 40))
	before := s.snap.Load()
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	after := s.snap.Load()

	// One app the roll left alone (its doc was carried, ETags stable) and
	// one it touched (rebuilt doc, fresh ETags).
	same, changed := -1, -1
	for i := 0; i < before.n && i < after.n && (same < 0 || changed < 0); i++ {
		if before.ex.RowVer(i) == after.ex.RowVer(i) {
			if same < 0 {
				same = i
			}
		} else if changed < 0 {
			changed = i
		}
	}
	if same < 0 || changed < 0 {
		t.Fatalf("need both carried and rebuilt apps (same=%d changed=%d)", same, changed)
	}

	for _, target := range []struct {
		name   string
		path   string
		wantGz bool
	}{
		{"carried-detail", "/api/v1/apps/" + strconv.Itoa(same), false},
		{"rebuilt-detail", "/api/v1/apps/" + strconv.Itoa(changed), false},
		{"list-page", "/api/v1/apps", false},
		{"long-comments", "/api/v1/apps/2/comments", true},
		{"stats", "/api/v1/stats", false},
	} {
		t.Run(target.name, func(t *testing.T) {
			// Establish both representations.
			id := encGet(t, h, target.path, "identity", "")
			if id.Code != 200 {
				t.Fatalf("identity GET: %d", id.Code)
			}
			idETag := id.Header().Get("ETag")
			if ce := id.Header().Get("Content-Encoding"); ce != "" {
				t.Fatalf("identity GET got Content-Encoding %q", ce)
			}
			gz := encGet(t, h, target.path, "gzip", "")
			if gz.Code != 200 {
				t.Fatalf("gzip GET: %d", gz.Code)
			}
			gzETag := gz.Header().Get("ETag")
			hasGz := gz.Header().Get("Content-Encoding") == "gzip"
			if hasGz != target.wantGz {
				t.Fatalf("gzip representation served: %v, want %v", hasGz, target.wantGz)
			}
			if hasGz {
				if want := strings.TrimSuffix(idETag, `"`) + `-gz"`; gzETag != want {
					t.Fatalf("gzip ETag %q, want %q", gzETag, want)
				}
				plain, err := gzipx.Decompress(gz.Body.Bytes())
				if err != nil || string(plain) != id.Body.String() {
					t.Fatalf("gzip body does not inflate to identity body (err %v)", err)
				}
			} else if gzETag != idETag {
				t.Fatalf("identity fallback changed the ETag: %q vs %q", gzETag, idETag)
			}

			cases := []struct {
				name       string
				ae, inm    string
				wantStatus int
				wantCE     string
			}{
				{"identity-no-validator", "identity", "", 200, ""},
				{"gzip-no-validator", "gzip", "", 200, ceIf(hasGz)},
				{"identity-matching-validator", "identity", idETag, 304, ""},
				{"gzip-matching-validator", "gzip", gzETag, 304, ""},
				// Cross-encoding validators must NOT revalidate when the
				// representations differ: the client holds the other
				// encoding's bytes.
				{"identity-with-gzip-validator", "identity", gzETag, status(hasGz, 200, 304), ""},
				{"gzip-with-identity-validator", "gzip", idETag, status(hasGz, 200, 304), ceIf(hasGz)},
				// List-shaped and weak validators still match per RFC 9110.
				{"validator-list", "gzip", `"bogus", ` + gzETag, 304, ""},
				{"weak-validator", "gzip", "W/" + gzETag, 304, ""},
				{"stale-validator", "gzip", `"stale-etag"`, 200, ceIf(hasGz)},
				// No Accept-Encoding at all: identity, like any pre-PR client.
				{"no-accept-encoding", "", idETag, 304, ""},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					rec := encGet(t, h, target.path, tc.ae, tc.inm)
					if rec.Code != tc.wantStatus {
						t.Fatalf("status %d, want %d", rec.Code, tc.wantStatus)
					}
					if ce := rec.Header().Get("Content-Encoding"); ce != tc.wantCE {
						t.Fatalf("Content-Encoding %q, want %q", ce, tc.wantCE)
					}
					// Vary marks a choice: present, on 200s and 304s alike,
					// exactly when the document has two representations.
					if v, want := rec.Header().Get("Vary"), varyIf(hasGz); v != want {
						t.Fatalf("Vary %q, want %q (status %d)", v, want, rec.Code)
					}
					if rec.Code == 304 && rec.Body.Len() != 0 {
						t.Fatalf("304 carried %d body bytes", rec.Body.Len())
					}
				})
			}
		})
	}

	// The carried doc's pre-roll validators (both encodings) must still
	// revalidate after the roll; the rebuilt doc's must not.
	preSame := before.detailDoc(same)
	if rec := encGet(t, h, "/api/v1/apps/"+strconv.Itoa(same), "identity", preSame.etag); rec.Code != 304 {
		t.Fatalf("carried identity validator: %d, want 304", rec.Code)
	}
	if preSame.gzBody != nil {
		if rec := encGet(t, h, "/api/v1/apps/"+strconv.Itoa(same), "gzip", preSame.gzEtag); rec.Code != 304 {
			t.Fatalf("carried gzip validator: %d, want 304", rec.Code)
		}
	}
	// A detail row has no gzip representation, so the "-gz" half of the
	// carry is the comment stream's to show.
	preStream := before.commentsDoc(2)
	if preStream.gzBody == nil {
		t.Fatal("the long comment stream kept no gzip representation before the roll")
	}
	if rec := encGet(t, h, "/api/v1/apps/2/comments", "gzip", preStream.gzEtag); rec.Code != 304 {
		t.Fatalf("carried gzip comment-stream validator: %d, want 304", rec.Code)
	}
	preChanged := before.detailDoc(changed)
	if rec := encGet(t, h, "/api/v1/apps/"+strconv.Itoa(changed), "identity", preChanged.etag); rec.Code != 200 {
		t.Fatalf("rebuilt identity validator: %d, want 200", rec.Code)
	}
	if preChanged.gzBody != nil {
		if rec := encGet(t, h, "/api/v1/apps/"+strconv.Itoa(changed), "gzip", preChanged.gzEtag); rec.Code != 200 {
			t.Fatalf("rebuilt gzip validator: %d, want 200", rec.Code)
		}
	}
}

// ceIf returns the expected Content-Encoding for a gzip-negotiated 200.
func ceIf(hasGz bool) string {
	if hasGz {
		return "gzip"
	}
	return ""
}

// varyIf returns the expected Vary of a document's responses.
func varyIf(hasGz bool) string {
	if hasGz {
		return "Accept-Encoding"
	}
	return ""
}

// status picks the expected status for cross-encoding validators: when
// the two representations are distinct (hasGz) the mismatched validator
// must get a 200; when gzip fell back to identity both validators name
// the same representation and 304 is correct.
func status(hasGz bool, distinct, collapsed int) int {
	if hasGz {
		return distinct
	}
	return collapsed
}

// TestGzipRepresentationOnlyWherePays pins which documents keep a gzip
// representation (gzipx.CompressIfPays decides; this is what the wire shows
// for it): the three-byte empty comment stream and a detail row do not, a
// ~300 B and a ~5 KiB comment stream do. Without one, a gzip client gets
// the identity bytes under the identity ETag with no Vary and no "-gz"
// validator exists; with one, each representation answers 304 only to its
// own validator.
func TestGzipRepresentationOnlyWherePays(t *testing.T) {
	s := etagTestServer(t, Config{PageSize: 50})
	s.SetComments(append(commentRun(1, 7), commentRun(2, 120)...))
	h := s.Handler()

	for _, tc := range []struct {
		name, path   string
		minLen, upTo int // identity body size bracket, so the case is the document it claims to be
		hasGz        bool
	}{
		{"empty-comments", "/api/v1/apps/0/comments", 3, 3, false},
		{"detail", "/api/v1/apps/0", 150, 200, false},
		{"comments-300B", "/api/v1/apps/1/comments", 257, 400, true},
		{"comments-5KiB", "/api/v1/apps/2/comments", 4500, 6000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := encGet(t, h, tc.path, "identity", "")
			gz := encGet(t, h, tc.path, "gzip", "")
			if id.Code != 200 || gz.Code != 200 {
				t.Fatalf("status %d / %d", id.Code, gz.Code)
			}
			if n := id.Body.Len(); n < tc.minLen || n > tc.upTo {
				t.Fatalf("identity body is %d B, want %d-%d: %s", n, tc.minLen, tc.upTo, id.Body)
			}
			idETag, gzETag := id.Header().Get("ETag"), gz.Header().Get("ETag")
			if got := gz.Header().Get("Content-Encoding") == "gzip"; got != tc.hasGz {
				t.Fatalf("gzip representation served: %v, want %v", got, tc.hasGz)
			}
			for _, rec := range []*httptest.ResponseRecorder{id, gz} {
				if v := rec.Header().Get("Vary"); v != varyIf(tc.hasGz) {
					t.Fatalf("Vary %q, want %q", v, varyIf(tc.hasGz))
				}
			}
			gzValidator := strings.TrimSuffix(idETag, `"`) + `-gz"`
			if !tc.hasGz {
				if gzETag != idETag || gz.Body.String() != id.Body.String() {
					t.Fatalf("gzip client got %q (%d B), want the identity representation %q (%d B)",
						gzETag, gz.Body.Len(), idETag, id.Body.Len())
				}
				if cl := gz.Header().Get("Content-Length"); cl != strconv.Itoa(id.Body.Len()) {
					t.Fatalf("Content-Length %q for %d identity bytes", cl, id.Body.Len())
				}
				// The identity validator revalidates whatever the client
				// accepts; a "-gz" one names nothing.
				for _, ae := range []string{"identity", "gzip"} {
					if rec := encGet(t, h, tc.path, ae, idETag); rec.Code != 304 {
						t.Fatalf("Accept-Encoding %s, identity validator: %d, want 304", ae, rec.Code)
					}
					if rec := encGet(t, h, tc.path, ae, gzValidator); rec.Code != 200 {
						t.Fatalf("Accept-Encoding %s, -gz validator: %d, want 200", ae, rec.Code)
					}
				}
				return
			}
			if gzETag != gzValidator {
				t.Fatalf("gzip ETag %q, want %q", gzETag, gzValidator)
			}
			if gz.Body.Len()+27 >= id.Body.Len() {
				t.Fatalf("kept a gzip representation of %d B for %d identity bytes: does not pay", gz.Body.Len(), id.Body.Len())
			}
			if plain, err := gzipx.Decompress(gz.Body.Bytes()); err != nil || string(plain) != id.Body.String() {
				t.Fatalf("gzip body does not inflate to the identity body (err %v)", err)
			}
			for _, c := range []struct {
				ae, inm string
				want    int
			}{
				{"identity", idETag, 304}, {"gzip", gzETag, 304},
				{"identity", gzETag, 200}, {"gzip", idETag, 200},
			} {
				if rec := encGet(t, h, tc.path, c.ae, c.inm); rec.Code != c.want {
					t.Fatalf("Accept-Encoding %s, If-None-Match %s: %d, want %d", c.ae, c.inm, rec.Code, c.want)
				}
			}
		})
	}
}
