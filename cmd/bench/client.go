package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"planetapps/internal/storeserver"
)

// request is one HTTP exchange the harness issues and checks.
type request struct {
	class opClass
	post  bool
	path  string // below the entry point's base URL
	user  int32  // becomes the per-user X-Forwarded-For
	app   int32  // the app a single-app route names; -1 for a listing
	inm   string // If-None-Match, when revalidating
	body  string // POST body
	idem  string // Idempotency-Key
	// deep asks for the response body to be decompressed and decoded, not
	// only framed: every write ack and every crawled listing page, one
	// document in eight otherwise.
	deep bool
}

// response is what a request came back with. body is valid until the
// client's next request.
type response struct {
	status    int
	etag      string
	day       int
	encoding  string
	body      []byte
	latency   time.Duration
	ids       []int32 // a deep-checked listing's app ids
	next      string  // a listing's next_cursor
	downloads int64   // a deep-checked detail's download count
}

// sample is one measured request: when it completed (ns since the
// recording epoch) and how long the client waited for it.
type sample struct{ end, lat int64 }

// kept is a response saved for the byte-for-byte comparison with the
// reference node after the window.
type kept struct {
	app      int32
	etag     string
	encoding string
	body     []byte
}

// client is one load connection: its own transport, so exactly one
// keep-alive connection, and its own sample store, so recording takes no
// lock. It is used by one goroutine at a time.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string

	// Set by the workload that drives the client.
	tracer    *tracer // non-nil: announce each request and record its client span
	classOf   map[int64]opClass
	committed *atomic.Int64 // non-nil: the last day a finished roll committed (mixed-epoch check)
	recording bool
	epoch     time.Time

	samples   [numClasses][]sample
	wireBytes int64
	attempted int64
	failed    int64
	firstErr  error

	n     int64 // requests issued, for the deterministic 1-in-N picks
	kept  []kept
	acked map[int32]int // accepted downloads per sampled app

	buf   bytes.Buffer
	plain bytes.Buffer
	gz    *gzip.Reader
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{
		hc:    &http.Client{Transport: tr, Timeout: 10 * time.Second},
		tr:    tr,
		base:  base,
		acked: map[int32]int{},
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// forwardedFor maps a user to a stable synthetic client address.
func forwardedFor(user int32) string {
	u := uint32(user)
	b := make([]byte, 0, 16)
	b = append(b, "10."...)
	b = strconv.AppendUint(b, uint64(u>>16&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(u>>8&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(u&255), 10)
	return string(b)
}

// do issues req, checks the answer and records it. A nil response means
// the request failed; the failure is already counted.
func (c *client) do(req *request) *response {
	c.n++
	c.attempted++
	resp, err := c.exchange(req)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %w", req.path, err)
		}
		return nil
	}
	return resp
}

func (c *client) exchange(req *request) (*response, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if req.post {
		method, body = http.MethodPost, strings.NewReader(req.body)
	}
	hr, err := http.NewRequest(method, c.base+req.path, body)
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Accept-Encoding", "gzip")
	hr.Header.Set("X-Forwarded-For", forwardedFor(req.user))
	if req.inm != "" {
		hr.Header.Set("If-None-Match", req.inm)
	}
	if req.post {
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("Idempotency-Key", req.idem)
	}
	var dayBefore int64 = -1
	if c.committed != nil {
		dayBefore = c.committed.Load()
	}

	var id int64
	if c.tracer != nil {
		id = c.tracer.seq.Add(1)
		c.classOf[id] = req.class
		c.tracer.cur.Store(id)
	}
	sent := time.Now()
	var spanStart int64
	if c.tracer != nil {
		spanStart = c.tracer.now()
	}
	hresp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(hresp.Body)
	hresp.Body.Close()
	done := time.Now()
	if c.tracer != nil {
		c.tracer.add(span{req: id, tier: tierClient, shard: -1, start: spanStart, end: c.tracer.now()})
	}
	if err != nil {
		return nil, err
	}

	resp := &response{
		status:   hresp.StatusCode,
		etag:     hresp.Header.Get("Etag"),
		encoding: hresp.Header.Get("Content-Encoding"),
		body:     c.buf.Bytes(),
		latency:  done.Sub(sent),
		day:      -1,
	}
	if d := hresp.Header.Get("X-Store-Day"); d != "" {
		if resp.day, err = strconv.Atoi(d); err != nil {
			return nil, fmt.Errorf("bad X-Store-Day %q", d)
		}
	}
	if c.recording {
		c.samples[req.class] = append(c.samples[req.class], sample{end: int64(done.Sub(c.epoch)), lat: int64(resp.latency)})
		c.wireBytes += int64(len(resp.body))
	}
	if err := c.check(req, resp); err != nil {
		return nil, err
	}
	if resp.day >= 0 && int64(resp.day) < dayBefore {
		return nil, fmt.Errorf("mixed epoch: day %d answered after day %d was committed", resp.day, dayBefore)
	}
	if req.class == classDetail && resp.status == http.StatusOK && c.n%256 == 0 {
		c.kept = append(c.kept, kept{app: req.app, etag: resp.etag, encoding: resp.encoding,
			body: append([]byte(nil), resp.body...)})
	}
	return resp, nil
}

// inflate returns the response body as JSON text.
func (c *client) inflate(resp *response) ([]byte, error) {
	if resp.encoding != "gzip" {
		return resp.body, nil
	}
	br := bytes.NewReader(resp.body)
	var err error
	if c.gz == nil {
		c.gz, err = gzip.NewReader(br)
	} else {
		err = c.gz.Reset(br)
	}
	if err != nil {
		return nil, fmt.Errorf("damaged gzip body: %w", err)
	}
	c.plain.Reset()
	if _, err := c.plain.ReadFrom(c.gz); err != nil {
		return nil, fmt.Errorf("damaged gzip body: %w", err)
	}
	return c.plain.Bytes(), nil
}

// check verifies one response against what was asked for.
func (c *client) check(req *request, resp *response) error {
	switch {
	case resp.status == http.StatusNotModified:
		if req.inm == "" {
			return errors.New("304 to an unconditional request")
		}
		return nil
	case resp.status != http.StatusOK:
		return fmt.Errorf("status %d", resp.status)
	}
	if !req.post && resp.etag == "" {
		return errors.New("200 without an ETag")
	}
	if !req.deep && req.class != classList {
		return nil
	}
	text, err := c.inflate(resp)
	if err != nil {
		return err
	}
	switch {
	case !req.deep:
		resp.next, err = scanNextCursor(text)
		return err
	case req.post:
		return checkAck(text)
	case req.class == classList:
		resp.ids, resp.next, err = checkPage(text)
		return err
	case strings.HasSuffix(req.path, "/comments"):
		var cs []storeserver.CommentJSON
		if err := json.Unmarshal(text, &cs); err != nil {
			return fmt.Errorf("comment stream does not decode: %w", err)
		}
		return nil
	default:
		resp.downloads, err = checkDetail(text, req.app)
		return err
	}
}

// checkDetail verifies a detail document decodes and names the app asked
// for, and returns its download count.
func checkDetail(text []byte, app int32) (downloads int64, err error) {
	var doc struct {
		ID        *int32 `json:"id"`
		Downloads int64  `json:"downloads"`
	}
	if err := json.Unmarshal(text, &doc); err != nil {
		return 0, fmt.Errorf("detail does not decode: %w", err)
	}
	if doc.ID == nil {
		return 0, fmt.Errorf("detail for app %d names no app", app)
	}
	if *doc.ID != app {
		return 0, fmt.Errorf("detail for app %d names app %d", app, *doc.ID)
	}
	return doc.Downloads, nil
}

// scanNextCursor pulls next_cursor out of a cursor page without decoding
// its hundred rows; the page must still be one JSON object. Cursors are
// base64url, so the first quote ends the value.
func scanNextCursor(text []byte) (string, error) {
	t := bytes.TrimSpace(text)
	if len(t) < 2 || t[0] != '{' || t[len(t)-1] != '}' {
		return "", errors.New("page is not a JSON object")
	}
	const key = `"next_cursor":"`
	i := bytes.LastIndex(t, []byte(key))
	if i < 0 {
		return "", nil
	}
	rest := t[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", errors.New("unterminated next_cursor")
	}
	return string(rest[:j]), nil
}

// checkAck verifies a write was acknowledged as accepted.
func checkAck(text []byte) error {
	var ack storeserver.WriteAckJSON
	if err := json.Unmarshal(text, &ack); err != nil {
		return fmt.Errorf("ack does not decode: %w", err)
	}
	if !ack.Accepted {
		return errors.New("write answered 200 without accepted:true")
	}
	return nil
}

// checkPage verifies a cursor page decodes with strictly ascending app
// ids, and returns them with the page's next_cursor.
func checkPage(text []byte) (ids []int32, next string, err error) {
	var page struct {
		Apps []struct {
			ID int32 `json:"id"`
		} `json:"apps"`
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal(text, &page); err != nil {
		return nil, "", fmt.Errorf("page does not decode: %w", err)
	}
	ids = make([]int32, len(page.Apps))
	for i, a := range page.Apps {
		if i > 0 && a.ID <= ids[i-1] {
			return nil, "", fmt.Errorf("page ids not ascending: %d after %d", a.ID, ids[i-1])
		}
		ids[i] = a.ID
	}
	return ids, page.NextCursor, nil
}

// --- request builders -------------------------------------------------------

func detailReq(user, app int32, deep bool) *request {
	return &request{class: classDetail, path: apiPrefix + "/apps/" + strconv.Itoa(int(app)), user: user, app: app, deep: deep}
}

func commentsReq(user, app int32, deep bool) *request {
	return &request{class: classDetail, path: apiPrefix + "/apps/" + strconv.Itoa(int(app)) + "/comments", user: user, app: app, deep: deep}
}

func listReq(user int32, cursor string, deep bool) *request {
	return &request{class: classList, path: apiPrefix + "/apps?cursor=" + cursor, user: user, app: -1, deep: deep}
}

// writeReq builds one funnel POST; endpoint is download, rate or comments.
func writeReq(user, app int32, endpoint string, stars int) *request {
	u := strconv.Itoa(int(user))
	body := `{"user":` + u + `}`
	if endpoint != "download" {
		body = `{"user":` + u + `,"rating":` + strconv.Itoa(stars) + `}`
	}
	a := strconv.Itoa(int(app))
	return &request{
		class: classWrite, post: true, deep: true,
		path: apiPrefix + "/apps/" + a + "/" + endpoint,
		user: user, app: app, body: body,
		idem: "bench-u" + u + "-a" + a + "-" + endpoint,
	}
}
