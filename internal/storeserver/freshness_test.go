package storeserver

import (
	"net/http"
	"testing"
	"time"
)

// TestV1FreshnessHeaders pins the satellite contract: every /api/v1
// response — success, 304, cursor slice, and error — carries Cache-Control
// and Age.
func TestV1FreshnessHeaders(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50, FreshFor: 45 * time.Second})
	for _, path := range []string{
		"/api/v1/stats",
		"/api/v1/apps",
		"/api/v1/apps?cursor=",
		"/api/v1/apps/3",
		"/api/v1/apps/3/comments",
		"/api/v1/apps/3/apk",
	} {
		code, _, hdr := fetch(t, ts.URL+path, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		if got := hdr.Get("Cache-Control"); got != "max-age=45" {
			t.Fatalf("%s: Cache-Control %q, want max-age=45", path, got)
		}
		if got := hdr.Get("Age"); got != "0" {
			t.Fatalf("%s: Age %q, want 0", path, got)
		}
		// Conditional revalidations must refresh the downstream clock too.
		if etag := hdr.Get("ETag"); etag != "" {
			code, _, hdr := fetch(t, ts.URL+path, map[string]string{"If-None-Match": etag})
			if code != http.StatusNotModified {
				t.Fatalf("%s: revalidation status %d", path, code)
			}
			if got := hdr.Get("Cache-Control"); got != "max-age=45" {
				t.Fatalf("%s: 304 Cache-Control %q", path, got)
			}
			if hdr.Get("Age") != "0" {
				t.Fatalf("%s: 304 missing Age", path)
			}
		}
	}

	// Errors must never be cached downstream.
	code, _, hdr := fetch(t, ts.URL+"/api/v1/apps/999999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("error probe: status %d", code)
	}
	if got := hdr.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("error Cache-Control %q, want no-store", got)
	}
}

// TestV1FreshnessDayInterval checks the scheduled-roll mode: max-age spans
// the roll cadence and Age counts up from snapshot publish, so remaining
// freshness is the time to the next expected roll.
func TestV1FreshnessDayInterval(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50, DayInterval: 2 * time.Minute})
	_, _, hdr := fetch(t, ts.URL+"/api/v1/stats", nil)
	if got := hdr.Get("Cache-Control"); got != "max-age=120" {
		t.Fatalf("Cache-Control %q, want max-age=120", got)
	}
	if hdr.Get("Age") == "" {
		t.Fatal("Age header missing")
	}
	// No-freshness default: always revalidate.
	_, ts0 := testServer(t, Config{PageSize: 50})
	_, _, hdr0 := fetch(t, ts0.URL+"/api/v1/stats", nil)
	if got := hdr0.Get("Cache-Control"); got != "max-age=0" {
		t.Fatalf("default Cache-Control %q, want max-age=0", got)
	}
}
