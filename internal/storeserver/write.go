package storeserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"planetapps/internal/apiwire"
	"planetapps/internal/wal"
)

// This file is the /api/v1 write surface: POST /api/v1/apps/{id}/download,
// .../rate, and .../comments. A request is validated against the serving
// snapshot (the app must exist today), appended to the write-ahead log,
// and acknowledged only after its group-commit batch seals — an acked
// write is guaranteed to merge into the next day's snapshot. The handlers
// share the error envelope; the new shapes are 422 validation_failed
// (well-formed JSON, bad field values), 409 duplicate (the natural key
// (kind, app, user) was already accepted — the store models
// fetch-at-most-once users), and 429 wal_backpressure with an honest
// Retry-After when the ingest buffer is full. Idempotency-Key makes
// retries safe: a replayed key returns the original ack with "deduped".

// maxWriteBody bounds a mutation request body; the documented shapes fit
// in tens of bytes.
const maxWriteBody = 1 << 12

// writeReqJSON is the request body of the POST mutation endpoints.
type writeReqJSON struct {
	// User identifies the acting user; required, non-negative. Pointer so
	// "absent" is distinguishable from user 0.
	User *int32 `json:"user"`
	// Rating is required 1..5 on /rate, optional 0..5 on /comments
	// (0 or absent = a comment with no rating attached, matching the
	// generated streams), and ignored on /download.
	Rating *int8 `json:"rating"`
}

// WriteAckJSON is the success body of the POST mutation endpoints. Seq is
// the record's per-WAL-shard sequence number; Day is the serving day the
// write was validated against — the mutation becomes visible in the
// snapshot of the following day-roll.
type WriteAckJSON struct {
	Accepted bool   `json:"accepted"`
	Seq      uint64 `json:"seq"`
	Day      int    `json:"day"`
	Deduped  bool   `json:"deduped,omitempty"`
}

// handleWrite services one POST mutation. The snapshot was loaded once by
// dispatch, so validation and the X-Store-Day header agree on one day.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request, sn *snapshot, kind apiwire.Kind, id int32, idOK bool) {
	res := s.writeRes[kind]
	if !idOK {
		res["invalid"].Inc()
		apiwire.BadAppID.Write(w)
		return
	}
	if _, ok := sn.ex.IndexOf(id); !ok {
		res["invalid"].Inc()
		writeAppNotFound(w, id)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxWriteBody+1))
	if err != nil || len(body) > maxWriteBody {
		res["invalid"].Inc()
		apiwire.WriteError(w, http.StatusBadRequest, "bad_request",
			"request body unreadable or larger than "+strconv.Itoa(maxWriteBody)+" bytes", 0)
		return
	}
	var req writeReqJSON
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			res["invalid"].Inc()
			apiwire.WriteError(w, http.StatusBadRequest, "bad_request",
				"request body must be a JSON object", 0)
			return
		}
	}
	if req.User == nil || *req.User < 0 {
		res["invalid"].Inc()
		apiwire.WriteError(w, http.StatusUnprocessableEntity, "validation_failed",
			`"user" is required and must be a non-negative integer`, 0)
		return
	}
	rec := wal.Rec{App: id, User: *req.User}
	switch kind {
	case apiwire.Download:
		rec.Kind = wal.Download
	case apiwire.Rate:
		rec.Kind = wal.Rate
		if req.Rating == nil || *req.Rating < 1 || *req.Rating > 5 {
			res["invalid"].Inc()
			apiwire.WriteError(w, http.StatusUnprocessableEntity, "validation_failed",
				`"rating" is required and must be an integer in 1..5`, 0)
			return
		}
		rec.Rating = *req.Rating
	case apiwire.Comments:
		rec.Kind = wal.Comment
		if req.Rating != nil {
			if *req.Rating < 0 || *req.Rating > 5 {
				res["invalid"].Inc()
				apiwire.WriteError(w, http.StatusUnprocessableEntity, "validation_failed",
					`"rating", when present, must be an integer in 0..5`, 0)
				return
			}
			rec.Rating = *req.Rating
		}
	}
	ack, err := s.wlog.Append(rec, r.Header.Get("Idempotency-Key"))
	if err != nil { // ErrBackpressure is the only error Append returns
		res["backpressure"].Inc()
		apiwire.WriteError(w, http.StatusTooManyRequests, "wal_backpressure",
			"write buffer full; retry after backoff", s.wlog.RetryAfter())
		return
	}
	if ack.Duplicate {
		res["duplicate"].Inc()
		apiwire.WriteError(w, http.StatusConflict, "duplicate",
			rec.Kind.String()+" by user "+strconv.FormatInt(int64(rec.User), 10)+
				" for app "+strconv.FormatInt(int64(id), 10)+" already recorded", 0)
		return
	}
	if ack.Deduped {
		res["deduped"].Inc()
	} else {
		res["accepted"].Inc()
	}
	h := w.Header()
	hset(h, hdrAPIVersion, apiwire.Version)
	hset(h, hdrCacheControl, "no-store")
	hset(h, hdrStoreDay, sn.dayStr)
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	encodeJSON(buf, WriteAckJSON{Accepted: true, Seq: ack.Seq, Day: sn.day, Deduped: ack.Deduped})
	hset(h, hdrContentType, "application/json")
	hset(h, hdrContentLength, strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing useful to do
	putBuf(buf)
}
