package edgecache

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"planetapps/internal/gzipx"
	"planetapps/internal/resilient"
)

// fetchKind classifies how a cache-miss request was resolved.
type fetchKind uint8

const (
	kindError fetchKind = iota
	kindMiss            // filled from a 200
	kindReval           // refreshed by a 304
	kindStale           // origin down, stale copy served
	kindPass            // relayed uncached
)

func (k fetchKind) label() string {
	switch k {
	case kindMiss:
		return "miss"
	case kindReval:
		return "revalidated"
	case kindStale:
		return "stale"
	case kindPass:
		return "pass"
	}
	return "error"
}

// fetchOut is the outcome of one collapsed origin fetch, shared by the
// single-flight leader with every coalesced follower.
type fetchOut struct {
	kind   fetchKind
	entry  *entry // kindMiss/kindReval/kindStale: a stable value copy
	status int    // kindPass
	header http.Header
	body   []byte
	err    error
}

// flight is one in-progress origin fetch; followers wait on done.
type flight struct {
	done chan struct{}
	out  *fetchOut
}

// getOrFetch resolves a request the fresh-hit path could not serve:
// coalesce with an in-flight fetch for the same (URI, variant), or become
// the leader and fetch (revalidating if a stale copy exists). Flights are
// keyed per variant even before the URI's Vary behavior is learned — a
// gzip client must never be handed an identity leader's bytes, or vice
// versa.
func (s *Server) getOrFetch(ctx context.Context, key reqKey, xff string) *fetchOut {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.st.coalesced.Inc()
		select {
		case <-f.done:
			return f.out
		case <-ctx.Done():
			return &fetchOut{kind: kindError, err: ctx.Err()}
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	var staleEtag string
	if e := s.lookupLocked(key); e != nil {
		staleEtag = e.etag
	}
	s.mu.Unlock()

	// The fetch deliberately runs on a fresh context: its result fills a
	// shared cache serving every coalesced follower, so one impatient
	// leader disconnecting must not cancel it for the rest.
	f.out = s.fetch(context.Background(), key, staleEtag, xff)

	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.out
}

// validateDoc rejects damaged JSON payloads before they can enter the
// cache: a corrupted body (the faultinject corruption scenario zeroes a
// span mid-body) must trigger a re-fetch, not get cached and re-served
// forever. Compressed payloads are decompressed here and ONLY here — the
// gzip CRC plus the JSON check together gate admission; the hit path
// never inflates anything. Non-JSON payloads pass through unchecked —
// they are not cached.
func validateDoc(res *resilient.Result) error {
	if res.Status != http.StatusOK {
		return nil
	}
	if !strings.HasPrefix(res.Header.Get("Content-Type"), "application/json") {
		return nil
	}
	body := res.Body
	if res.Header.Get("Content-Encoding") == "gzip" {
		plain, err := gzipx.Decompress(body)
		if err != nil {
			return errors.New("edgecache: damaged gzip payload: " + err.Error())
		}
		body = plain
	}
	if !json.Valid(body) {
		return errors.New("edgecache: damaged JSON payload")
	}
	return nil
}

// parseVary splits an origin Vary header into the one dimension the edge
// knows how to key on (Accept-Encoding) and everything else. "*" counts
// as other: it means "varies on something you cannot see", which the edge
// honors by not caching.
func parseVary(v string) (ae, other bool) {
	for v != "" {
		field := v
		if i := strings.IndexByte(v, ','); i >= 0 {
			field, v = v[:i], v[i+1:]
		} else {
			v = ""
		}
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if strings.EqualFold(field, "Accept-Encoding") {
			ae = true
		} else {
			other = true
		}
	}
	return ae, other
}

// fetch performs the leader's origin exchange and folds the outcome into
// the cache. The origin leg always carries an explicit Accept-Encoding —
// "gzip" for the gzip variant, "identity" otherwise — which also disables
// the Go transport's transparent decompression, so compressed bytes
// arrive (and are stored, and later served) exactly as the origin encoded
// them: one compression per content version, ever, at the origin.
func (s *Server) fetch(ctx context.Context, key reqKey, staleEtag, xff string) *fetchOut {
	url := s.cfg.Origin + key.uri
	hdr := http.Header{}
	if key.variant == "gzip" {
		hdr.Set("Accept-Encoding", "gzip")
	} else {
		hdr.Set("Accept-Encoding", "identity")
	}
	if staleEtag != "" {
		hdr.Set("If-None-Match", staleEtag)
	}
	if xff != "" {
		hdr.Set("X-Forwarded-For", xff)
	}
	s.st.originReqs.Inc()
	res, err := s.client.Get(ctx, url, hdr, validateDoc)
	now := time.Now()
	if err != nil {
		var pe *resilient.PermanentError
		if errors.As(err, &pe) && res != nil {
			// A definitive origin answer (4xx): relay it uncached.
			return &fetchOut{kind: kindPass, status: res.Status, header: res.Header, body: res.Body}
		}
		// Transport failure or exhausted 5xx retries: the origin is
		// unreachable. Serve the stale copy when one exists — old data
		// beats no data while the origin rides out a fault storm.
		s.mu.Lock()
		e := s.lookupLocked(key)
		if e == nil {
			s.mu.Unlock()
			return &fetchOut{kind: kindError, err: err}
		}
		snap := *e
		s.mu.Unlock()
		s.st.staleServed.Inc()
		return &fetchOut{kind: kindStale, entry: &snap}
	}

	switch {
	case res.Status == http.StatusNotModified && staleEtag != "":
		// Our copy is still current: refresh its freshness clock.
		ttl, age := s.freshnessOf(res.Header)
		s.mu.Lock()
		if e := s.lookupLocked(key); e != nil && e.etag == staleEtag {
			e.originAge = age
			e.storedAt = now
			e.expires = now.Add(ttl)
			if day := res.Header.Get("X-Store-Day"); day != "" {
				e.day = day
			}
			if cc := res.Header.Get("Cache-Control"); cc != "" {
				e.cc = cc
			}
			s.pol.AccessCost(e.key, int64(len(e.body)))
			snap := *e
			s.mu.Unlock()
			s.st.revalidated.Inc()
			return &fetchOut{kind: kindReval, entry: &snap}
		}
		s.mu.Unlock()
		// The entry vanished between flight start and the 304 (evicted
		// mid-flight): we hold no body. Refetch unconditionally.
		return s.fetch(ctx, key, "", xff)

	case res.Status == http.StatusOK:
		s.st.originBytes.Add(int64(len(res.Body)))
		etag := res.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(res.Header.Get("Content-Type"), "application/json") {
			// Uncacheable: no validator (ETag) to revalidate with, or a
			// payload (APK stream) the edge cannot integrity-check.
			return &fetchOut{kind: kindPass, status: res.Status, header: res.Header, body: res.Body}
		}
		vary := res.Header.Get("Vary")
		varyAE, varyOther := parseVary(vary)
		cenc := res.Header.Get("Content-Encoding")
		if varyOther || (cenc != "" && cenc != "gzip") {
			// The response varies on a dimension the edge cannot key on,
			// or carries a coding it cannot integrity-check: honoring
			// Vary means not caching what we cannot tell apart.
			return &fetchOut{kind: kindPass, status: res.Status, header: res.Header, body: res.Body}
		}
		plain := res.Body
		if cenc == "gzip" {
			var derr error
			if plain, derr = gzipx.Decompress(res.Body); derr != nil {
				// Unreachable after validateDoc, but stay honest: relay
				// rather than cache bytes we cannot verify.
				return &fetchOut{kind: kindPass, status: res.Status, header: res.Header, body: res.Body}
			}
		}
		ttl, age := s.freshnessOf(res.Header)
		info := classify(key.uri, plain)
		if s.warm != nil && info.appID >= 0 && !strings.HasPrefix(info.cat, "\x00") {
			s.warm.learn(info.appID, info.cat, info.downloads)
		}
		s.mu.Lock()
		// A response that does not vary on Accept-Encoding is shared under
		// the bare URI — unless this variant already has an entry of its
		// own (the origin stopped varying), which is then refreshed in
		// place rather than left to shadow the shared one.
		if !varyAE && s.entries[key] == nil {
			key.variant = ""
		}
		e := &entry{
			key:       key,
			body:      res.Body,
			etag:      etag,
			ctype:     res.Header.Get("Content-Type"),
			cenc:      cenc,
			vary:      vary,
			varyAE:    varyAE,
			day:       res.Header.Get("X-Store-Day"),
			apiVer:    res.Header.Get("X-API-Version"),
			cc:        res.Header.Get("Cache-Control"),
			originAge: age,
			storedAt:  now,
			expires:   now.Add(ttl),
			appID:     info.appID,
			cat:       s.internCat(info.cat),
		}
		s.entries[key] = e
		s.pol.AccessCost(key, int64(len(e.body)))
		if !s.pol.Contains(key) {
			// Larger than the whole cache: serve the body anyway, just do
			// not keep it.
			delete(s.entries, key)
		}
		snap := *e
		s.mu.Unlock()
		s.st.misses.Inc()
		return &fetchOut{kind: kindMiss, entry: &snap}

	default:
		// Unexpected success-class status (206, 3xx...): relay uncached.
		return &fetchOut{kind: kindPass, status: res.Status, header: res.Header, body: res.Body}
	}
}

// freshnessOf derives the remaining freshness lifetime and the reported
// age from origin headers: remaining = max-age - Age, clamped to
// [0, MaxTTL]. Without Cache-Control, DefaultTTL applies; no-store and
// no-cache mean zero.
func (s *Server) freshnessOf(h http.Header) (time.Duration, int64) {
	var age int64
	if v := h.Get("Age"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			age = n
		}
	}
	maxAge, ok := parseMaxAge(h.Get("Cache-Control"))
	if !ok {
		ttl := s.cfg.DefaultTTL
		if s.cfg.MaxTTL > 0 && ttl > s.cfg.MaxTTL {
			ttl = s.cfg.MaxTTL
		}
		return ttl, age
	}
	rem := maxAge - time.Duration(age)*time.Second
	if rem < 0 {
		rem = 0
	}
	if s.cfg.MaxTTL > 0 && rem > s.cfg.MaxTTL {
		rem = s.cfg.MaxTTL
	}
	return rem, age
}

// parseMaxAge extracts max-age from a Cache-Control value. no-store and
// no-cache report zero; ok is false when the header carries no usable
// freshness directive at all.
func parseMaxAge(cc string) (time.Duration, bool) {
	if cc == "" {
		return 0, false
	}
	for _, part := range strings.Split(cc, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		switch {
		case part == "no-store" || part == "no-cache":
			return 0, true
		case strings.HasPrefix(part, "max-age="):
			secs, err := strconv.ParseInt(part[len("max-age="):], 10, 64)
			if err != nil || secs < 0 {
				return 0, true // malformed max-age: treat as stale
			}
			return time.Duration(secs) * time.Second, true
		}
	}
	return 0, false
}
