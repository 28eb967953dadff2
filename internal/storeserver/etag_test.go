package storeserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
)

func etagTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return etagTestServerScale(t, cfg, 0.2)
}

func etagTestServerScale(t *testing.T, cfg Config, scale float64) *Server {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(scale))
	mcfg.Days = 8
	m, err := marketsim.New(mcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, cfg)
}

func doGet(t *testing.T, h http.Handler, path, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestETagStableAcrossDays is the crawler-facing contract of the
// incremental day-roll: an app whose content did not change between days
// keeps its ETag, so a conditional re-crawl earns a true 304 across the
// snapshot swap; a changed app gets a fresh ETag and a 200.
func TestETagStableAcrossDays(t *testing.T) {
	s := etagTestServer(t, Config{PageSize: 50})
	h := s.Handler()

	before := s.snap.Load()
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	after := s.snap.Load()

	// Classify apps by whether the day changed them.
	same, changed := -1, -1
	for i := 0; i < before.n && i < after.n; i++ {
		if before.ex.RowVer(i) == after.ex.RowVer(i) {
			if same < 0 {
				same = i
			}
		} else if changed < 0 {
			changed = i
		}
		if same >= 0 && changed >= 0 {
			break
		}
	}
	if same < 0 || changed < 0 {
		t.Fatalf("need both an unchanged and a changed app (same=%d changed=%d)", same, changed)
	}

	// Unchanged app: the ETag a day-0 crawl captured revalidates today.
	pathSame := "/api/v1/apps/" + strconv.Itoa(same)
	etag := beforeETag(t, before, same)
	rec := doGet(t, h, pathSame, etag)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("unchanged app %d: If-None-Match %s got %d, want 304", same, etag, rec.Code)
	}
	if got := rec.Header().Get("ETag"); got != etag {
		t.Fatalf("unchanged app %d: ETag drifted %s -> %s across the day roll", same, etag, got)
	}

	// Changed app: the stale ETag must NOT revalidate.
	pathChanged := "/api/v1/apps/" + strconv.Itoa(changed)
	stale := beforeETag(t, before, changed)
	rec = doGet(t, h, pathChanged, stale)
	if rec.Code != http.StatusOK {
		t.Fatalf("changed app %d: stale ETag got %d, want 200", changed, rec.Code)
	}
	if got := rec.Header().Get("ETag"); got == stale {
		t.Fatalf("changed app %d: ETag %s did not change with content", changed, got)
	}
}

func beforeETag(t *testing.T, sn *snapshot, i int) string {
	t.Helper()
	etag := sn.detailDoc(i).etag
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("app %d: bad etag %q", i, etag)
	}
	return etag
}

// TestCarriedDocsShareEncoding verifies the cross-snapshot reuse itself:
// a document the predecessor already encoded is carried — the new snapshot
// serves the predecessor's bytes without re-encoding. A small catalog's
// day-0 arena holds far less than a quarter of its slab, so the roll
// evacuates it and a carried document is a verbatim copy; on a catalog
// that fills its slabs no evacuation is due and a carried document is the
// predecessor's own region, pointer for pointer.
func TestCarriedDocsShareEncoding(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     float64
		evacuated bool
	}{
		{"evacuated", 0.2, true},
		{"in place", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := etagTestServerScale(t, Config{PageSize: 50}, tc.scale)
			before := s.snap.Load()
			// Force-encode every detail document on day 0.
			for i := 0; i < before.n; i++ {
				before.detailDoc(i)
			}
			if err := s.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
			after := s.snap.Load()
			if got := after.compacted > 0; got != tc.evacuated {
				t.Fatalf("evacuated = %v (moved %d docs), want %v", got, after.moved, tc.evacuated)
			}

			carried, fresh := 0, 0
			for i := 0; i < before.n && i < after.n; i++ {
				h0, h1 := before.detail.docAt(i), after.detail.docAt(i)
				if before.ex.RowVer(i) != after.ex.RowVer(i) {
					fresh++
					if h1.state == docFilled {
						t.Fatalf("changed app %d: stale document carried across the roll", i)
					}
					continue
				}
				carried++
				// Nothing has asked the new snapshot for this document yet, so
				// a filled handle can only be the day-0 fill carried over.
				if h1.state != docFilled || h1.regionLen() != h0.regionLen() {
					t.Fatalf("unchanged app %d: document not carried (%+v vs %+v)", i, h1, h0)
				}
				if !tc.evacuated && h1 != h0 {
					t.Fatalf("unchanged app %d: document re-allocated instead of carried", i)
				}
				// The doc serves the day-0 encoding — including the gzip
				// variant built inside the same fill.
				d0, d1 := before.detailDoc(i), after.detailDoc(i)
				if d0.etag != d1.etag || d0.gzEtag != d1.gzEtag ||
					!bytes.Equal(d0.body, d1.body) || !bytes.Equal(d0.gzBody, d1.gzBody) {
					t.Fatalf("unchanged app %d: carried doc differs (etag %s vs %s)", i, d0.etag, d1.etag)
				}
				if !tc.evacuated && (&d0.body[0] != &d1.body[0] || d0.gzBody != nil && &d0.gzBody[0] != &d1.gzBody[0]) {
					t.Fatalf("unchanged app %d: carried doc copied with no evacuation due", i)
				}
			}
			if carried == 0 {
				t.Fatal("no documents carried — delta snapshot not engaging")
			}
			// Evacuation copies; it never re-encodes. What the build booked
			// as re-encoded is the changed and arrived apps' details, the
			// arrived apps' comment documents and the stats document; with
			// what it carried that is every document a snapshot caches.
			arrived := int64(after.n - before.n)
			want := int64(fresh) + 2*arrived + 1
			if after.carried == 0 || after.reencoded != want || after.carried+after.reencoded != 2*int64(after.n)+1 {
				t.Fatalf("build accounting: carried=%d reencoded=%d, want reencoded %d and a sum of 2n+1 = %d",
					after.carried, after.reencoded, want, 2*after.n+1)
			}
			t.Logf("day roll carried %d detail docs, re-encoded %d, moved %d", carried, fresh, after.moved)

			// Comments (no comment set: generation unchanged) carry wholesale.
			for i := 0; i < before.n && i < after.n; i++ {
				if after.comDocs.docAt(i).state != before.comDocs.docAt(i).state {
					t.Fatalf("comments doc %d not carried despite unchanged generation", i)
				}
			}
		})
	}
}

// TestListingETagAcrossDays: a listing slice spanning only untouched
// chunks revalidates across days, one spanning a touched chunk does not;
// any slice revalidating must serve identical bytes.
func TestListingETagAcrossDays(t *testing.T) {
	// No arrivals: a slice's ETag joins the catalog size (its body does),
	// so one new app would move every slice's.
	s := New(lowChurnMarket(t, 6000, 0), Config{PageSize: 50})
	h := s.Handler()
	type slice struct {
		path, etag string
		body       []byte
	}
	var walk []slice
	for path := "/api/v1/apps"; ; {
		rec := doGet(t, h, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
		walk = append(walk, slice{path, rec.Header().Get("ETag"), rec.Body.Bytes()})
		var page CursorPageJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.NextCursor == "" {
			break
		}
		path = "/api/v1/apps?cursor=" + page.NextCursor
	}
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	kept, moved := 0, 0
	for _, sl := range walk {
		rec := doGet(t, h, sl.path, sl.etag)
		switch rec.Code {
		case http.StatusNotModified:
			// Revalidated: content must really be unchanged.
			kept++
			if rec2 := doGet(t, h, sl.path, ""); !bytes.Equal(rec2.Body.Bytes(), sl.body) {
				t.Fatalf("%s revalidated but content changed", sl.path)
			}
		case http.StatusOK:
			moved++
			if rec.Header().Get("ETag") == sl.etag {
				t.Fatalf("%s: 200 with unchanged ETag", sl.path)
			}
		default:
			t.Fatalf("%s: status %d", sl.path, rec.Code)
		}
	}
	t.Logf("%d slices: %d kept their ETag across the roll, %d moved", len(walk), kept, moved)
	if kept == 0 || moved == 0 {
		t.Fatal("the roll must leave some spans untouched and touch others for both halves to be shown")
	}
}
