package storeserver

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"planetapps/internal/apiwire"
)

// This file is the zero-allocation request dispatcher. go1.22's ServeMux
// costs two pattern matches and a wildcard-segment slice per request, then
// every handler pays url.Values for the query and Header.Set's one-element
// slice per header. For a route set this small and this fixed the
// hand-rolled grammar in internal/apiwire does the same dispatch with zero
// heap traffic: path matching is substring compares, the app ID is parsed
// in place, query lookup scans RawQuery without building a map, and status
// capture comes from a sync.Pool. Combined with the pre-rendered header
// values elsewhere, a warm cache hit performs no allocations at all
// (pinned by allocbudget_test.go).

// hset sets a single-valued header without allocating when the header map
// already holds a slot for the key — the case for every pooled writer and
// every recycled connection — by writing into the existing one-element
// slice instead of replacing it. key must already be in canonical MIME
// form ("Etag", not "ETag"): textproto canonicalization is what
// Header.Set does before the map write, and what Header.Get does on read,
// so precanonicalized constants keep both sides allocation-free.
func hset(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value}
}

// Canonical-form header keys for hset. Go canonicalizes "ETag" to "Etag"
// and "X-API-Version" to "X-Api-Version"; clients read through
// Header.Get, which canonicalizes the same way, so the wire casing below
// is exactly what Header.Set has always produced.
const (
	hdrETag            = "Etag"
	hdrStoreDay        = "X-Store-Day"
	hdrContentType     = "Content-Type"
	hdrContentLength   = "Content-Length"
	hdrContentEncoding = "Content-Encoding"
	hdrVary            = "Vary"
	hdrAPIVersion      = "X-Api-Version"
	hdrCacheControl    = "Cache-Control"
	hdrAge             = "Age"
)

// swPool recycles status-capturing writers; the wrapper struct was one of
// the per-request allocations the old instrument middleware paid.
var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// route is the API dispatcher: parse, instrument, dispatch. Unknown paths
// 404; wrong methods 405 with the route's Allow header. Instruments count
// only matched routes.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	kind, id, idOK := apiwire.ParsePath(r.URL.Path)
	if kind == apiwire.None {
		http.NotFound(w, r)
		return
	}
	isWrite, ok := apiwire.CheckMethod(kind, r.Method)
	if !ok {
		apiwire.WriteMethodNotAllowed(w, kind, r.Method)
		return
	}
	ri := s.routeByKind[kind]
	start := time.Now()
	s.total.Inc()
	ri.total.Inc()
	s.inFlight.Inc()
	sw := swPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.code = w, http.StatusOK
	s.dispatch(sw, r, kind, id, idOK, isWrite)
	s.inFlight.Dec()
	ri.latency.ObserveSince(start)
	c, ok := ri.byCode[sw.code]
	if !ok {
		c = s.codeCounter(ri.route, sw.code)
	}
	c.Inc()
	sw.ResponseWriter = nil
	swPool.Put(sw)
}

// dispatch hands the matched route to its handler. The snapshot is loaded
// exactly once here and threaded through, so one response can never mix
// two days.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind apiwire.Kind, id int32, idOK bool, isWrite bool) {
	sn := s.snap.Load()
	if isWrite {
		s.handleWrite(w, r, sn, kind, id, idOK)
		return
	}
	switch kind {
	case apiwire.Stats:
		s.serveDoc(w, r, sn, sn.statsDoc())
	case apiwire.List:
		s.handleList(w, r, sn)
	default: // Detail, Comments, APK
		if !idOK {
			apiwire.BadAppID.Write(w)
			return
		}
		// The URL carries the app's global ID; resolve it to a row index.
		// Dense (single-node) exports resolve in O(1) with the historical
		// id-beyond-catalog 404; a partitioned shard binary-searches its
		// owned rows and 404s IDs it does not own — the gateway never
		// sends those, but a direct probe must not crash into a wrong app.
		idx, ok := sn.ex.IndexOf(id)
		if !ok {
			writeAppNotFound(w, id)
			return
		}
		switch kind {
		case apiwire.Detail:
			s.serveDoc(w, r, sn, sn.detailDoc(idx))
		case apiwire.Comments:
			s.serveDoc(w, r, sn, sn.commentsDoc(idx))
		case apiwire.APK:
			s.stamp(w.Header(), sn)
			s.handleAPK(w, r, sn, idx)
		}
	}
}

func writeAppNotFound(w http.ResponseWriter, id int32) {
	apiwire.WriteError(w, http.StatusNotFound, "app_not_found",
		"no app with id "+strconv.FormatInt(int64(id), 10), 0)
}
