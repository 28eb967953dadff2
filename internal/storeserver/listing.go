package storeserver

import (
	"net/http"
	"strconv"

	"planetapps/internal/apiwire"
)

// CursorPageJSON is one cursor-addressed slice of the listing. NextCursor
// is absent on the final slice.
type CursorPageJSON struct {
	Apps       []AppJSON `json:"apps"`
	NextCursor string    `json:"next_cursor,omitempty"`
	Total      int       `json:"total"`
}

// EncodeCursor forwards to apiwire.EncodeCursor for callers that already
// import this package.
func EncodeCursor(id int) string { return apiwire.EncodeCursor(id) }

// handleList serves one cursor-addressed listing slice. An absent or
// empty cursor starts from the beginning; ?page= in any form is refused,
// so a page-walker fails loudly instead of looping on the first slice.
// Slices are encoded per request — their alignment shifts with the
// anchor, so pre-encoding (and pre-compressing) every offset is not
// worthwhile; they are served identity-only, and since no negotiation
// happens they carry no Vary. Query inspection scans RawQuery in place —
// a url.Values map would be a mandatory allocation on the hot path.
// The ETag is computed from the spanned rows' content versions *before*
// encoding, so an If-None-Match revalidation costs no JSON work at all.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	rq := r.URL.RawQuery
	if _, ok := apiwire.QueryValue(rq, "page"); ok {
		apiwire.PageUnsupported.Write(w)
		return
	}
	lo := 0
	if cursor, _ := apiwire.QueryValue(rq, "cursor"); cursor != "" {
		v, ok := apiwire.DecodeCursor(cursor)
		if !ok {
			apiwire.WriteError(w, http.StatusBadRequest, "bad_cursor",
				"cursor is invalid or from an incompatible version", 0)
			return
		}
		// The anchor is a global app ID; resolve it to the first at-or-
		// after row. On dense exports that is the identity (clamped), so
		// pre-fleet cursor walks see unchanged responses; on a shard it
		// skips rows other partitions own.
		lo = sn.ex.IndexAtOrAfter(int32(v)) // DecodeCursor caps at MaxInt32
	}
	size := sn.pageSize
	if lim, _ := apiwire.QueryValue(rq, "limit"); lim != "" {
		v, ok := apiwire.ParseLimit(lim)
		if !ok {
			apiwire.BadLimit.Write(w)
			return
		}
		// A limit above the configured page size is clamped, not
		// rejected: the page size is the server's protection, the limit
		// the client's economy (the gateway's exhausted-shard probes ask
		// for limit=1).
		if v < size {
			size = v
		}
	}
	hi := lo + size
	if hi > sn.n {
		hi = sn.n
	}
	if lo > hi {
		// A cursor parked past the end of the catalog (the crawl finished
		// and the catalog has not grown yet): an empty terminal slice, not
		// an error, so a resumable crawler can poll for growth.
		lo = hi
	}
	etag := `"u` + strconv.Itoa(lo) + `-n` + strconv.Itoa(sn.n) +
		`-v` + strconv.FormatUint(sn.ex.VersionSum(lo, hi), 10) + `"`
	if size != sn.pageSize {
		// Non-default limits join the slice length into the validator:
		// VersionSum is chunk-granular, so two different-length slices
		// inside one chunk would otherwise share an ETag. Default-size
		// requests keep their historical (pre-limit) ETags.
		etag = etag[:len(etag)-1] + `-k` + strconv.Itoa(size) + `"`
	}
	h := w.Header()
	s.stamp(h, sn)
	hset(h, hdrETag, etag)
	hset(h, hdrStoreDay, sn.dayStr)
	if apiwire.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	buf := getBuf()
	b := append(buf.AvailableBuffer(), `{"apps":`...)
	b = sn.appendRows(b, lo, hi)
	if hi < sn.n {
		// The next anchor is the global ID of the first unserved row —
		// identical to the row index on dense exports, so single-node
		// cursor chains are byte-for-byte what they always were.
		b = append(b, `,"next_cursor":`...)
		b = appendJSONString(b, apiwire.EncodeCursor(int(sn.ex.ID(hi))))
	}
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(sn.n), 10)
	buf.Write(append(b, "}\n"...))
	hset(h, hdrContentType, "application/json")
	hset(h, hdrContentLength, strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing useful to do
	putBuf(buf)
}
