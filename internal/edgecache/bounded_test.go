package edgecache

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// perKeyRecords counts the entries of every map the Server holds, bar the
// category-name table (keyed by the origin's category vocabulary, not by
// anything a client sends).
func perKeyRecords(s *Server) (n int, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f, name := v.Field(i), v.Type().Field(i).Name; f.Kind() == reflect.Map && name != "cats" {
			n += f.Len()
			detail += fmt.Sprintf(" %s=%d", name, f.Len())
		}
	}
	return n, detail
}

// TestPerKeyStateBoundedByResidency is the hostile-query-string case: far
// more distinct cacheable URIs than the budget can hold. Whatever the edge
// remembers about a URI must go when its entry goes — the state it holds
// per request key may never exceed resident entries plus fetches in flight
// (none here: the requests are sequential).
func TestPerKeyStateBoundedByResidency(t *testing.T) {
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("ETag", `"v1"`)
		h.Set("Vary", "Accept-Encoding")
		h.Set("Cache-Control", "max-age=60")
		fmt.Fprintf(w, `{"id":1,"category":"c0","downloads":7,"pad":"%080d"}`, 0)
	})
	for _, policy := range []string{"lru", "2q", "category"} {
		t.Run(policy, func(t *testing.T) {
			s, base := newTestEdge(t, origin, Config{CapacityBytes: 1000, Policy: policy})
			for i := 0; i < 5000; i++ {
				if code, _, _ := edgeGet(t, fmt.Sprintf("%s/api/v1/apps/1?x=%d", base, i), nil); code != 200 {
					t.Fatalf("request %d: status %d", i, code)
				}
				if i%250 != 249 {
					continue
				}
				resident := s.Stats().Entries
				if n, detail := perKeyRecords(s); n > resident || resident == 0 {
					t.Fatalf("after %d distinct URIs: %d per-key records for %d resident entries:%s",
						i+1, n, resident, detail)
				}
			}
		})
	}
}

// TestStoredBodiesHaveNoSpareCapacity: the byte budget charges an entry
// len(body), so that is all an entry may hold. A body read with io.ReadAll
// arrives in a buffer of at least 512 bytes, 2.7 times a detail document;
// resilient reads a declared length into a slice of that length and copies
// an undeclared (chunked) one down to size.
func TestStoredBodiesHaveNoSpareCapacity(t *testing.T) {
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("ETag", `"v1"`)
		h.Set("Cache-Control", "max-age=60")
		fmt.Fprintf(w, `{"id":1,"category":"c0","downloads":7,"pad":"%0130d`, 0)
		if r.URL.Query().Has("chunked") {
			w.(http.Flusher).Flush() // no Content-Length: the body goes out chunked
			fmt.Fprintf(w, "%0700d", 0)
		}
		fmt.Fprint(w, `"}`)
	})
	s, base := newTestEdge(t, origin, Config{CapacityBytes: 1 << 20, Policy: "lru"})
	for _, q := range []string{"", "?chunked"} {
		if code, _, _ := edgeGet(t, base+"/api/v1/apps/1"+q, nil); code != 200 {
			t.Fatalf("GET %q: status %d", q, code)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != 2 {
		t.Fatalf("%d entries stored, want 2", len(s.entries))
	}
	var held int64
	for k, e := range s.entries {
		if cap(e.body) != len(e.body) {
			t.Errorf("%v: a %d-byte body is held in %d bytes", k, len(e.body), cap(e.body))
		}
		held += int64(cap(e.body))
	}
	if cost := s.pol.Cost(); cost != held {
		t.Errorf("the ledger charges %d bytes for bodies holding %d", cost, held)
	}
}
