package edgecache

import (
	"net/http"
	"testing"
)

// TestCategoryClassification follows documents through the fill path to
// the dense category id the category-aware policy partitions on: a detail
// page by the category in its body, every other document by its route,
// and a detail body that does not parse into its own bin. Under any other
// policy the fill path classifies nothing.
func TestCategoryClassification(t *testing.T) {
	rows := []struct{ uri, body, want string }{
		{"/api/v1/apps/0", `{"id":0,"category":"c0"}`, "c0"},
		{"/api/v1/apps/1", `{"id":1,"category":"c1"}`, "c1"},
		{"/api/v1/apps/2", `{"id":2,"category":"c0"}`, "c0"},
		{"/api/v1/apps/3", `{"id":3,"category":7}`, catDetail},
		{"/api/v1/apps/4", `{"id":4}`, catDetail},
		{"/api/v1/apps", `{"apps":[]}`, catList},
		{"/api/v1/apps?cursor=abc", `{"apps":[]}`, catList},
		{"/api/v1/stats", `{"day":0}`, catStats},
		{"/api/v1/apps/0/comments", `[]`, catComments},
	}
	docs := map[string]string{}
	for _, r := range rows {
		docs[r.uri] = r.body
	}
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := docs[r.URL.RequestURI()]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"v1"`)
		w.Header().Set("Cache-Control", "max-age=60")
		w.Write([]byte(body))
	})
	fill := func(t *testing.T, policy string) *Server {
		t.Helper()
		s, base := newTestEdge(t, origin, Config{Policy: policy})
		for _, r := range rows {
			if code, _, hdr := edgeGet(t, base+r.uri, nil); code != http.StatusOK || hdr.Get("X-Edge-Cache") != "miss" {
				t.Fatalf("%s: status %d, X-Edge-Cache %q", r.uri, code, hdr.Get("X-Edge-Cache"))
			}
		}
		return s
	}

	t.Run("category", func(t *testing.T) {
		s := fill(t, "category")
		s.mu.Lock()
		defer s.mu.Unlock()
		catOf := func(uri string) int32 {
			e := s.entries[reqKey{uri: uri}]
			if e == nil {
				t.Fatalf("%s is not resident", uri)
			}
			return e.cat
		}
		for _, r := range rows {
			id, ok := s.cats[r.want]
			if !ok {
				t.Fatalf("%s: category %q never interned; have %q", r.uri, r.want, s.cats)
			}
			if got := catOf(r.uri); got != id {
				t.Errorf("%s: category id %d, want %d (%q)", r.uri, got, id, r.want)
			}
		}
		if catOf("/api/v1/apps/0") != catOf("/api/v1/apps/2") || catOf("/api/v1/apps/0") == catOf("/api/v1/apps/1") {
			t.Errorf("c0 and c1 detail pages got ids %d, %d, %d", catOf("/api/v1/apps/0"), catOf("/api/v1/apps/1"), catOf("/api/v1/apps/2"))
		}
		if len(s.cats) != 6 {
			t.Errorf("%d categories interned, want 6: %q", len(s.cats), s.cats)
		}
	})
	t.Run("lru", func(t *testing.T) {
		s := fill(t, "lru")
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.cats) != 0 {
			t.Errorf("lru fills interned categories %q", s.cats)
		}
	})
}
