package storeserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
	"planetapps/internal/wal"
)

// postJSON issues one POST and returns the status, parsed envelope/ack
// fields, and raw body.
func postJSON(t *testing.T, url, body, idemKey string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestWriteEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	base := ts.URL + "/api/v1/apps/3"

	// Accepted download.
	resp, body := postJSON(t, base+"/download", `{"user":7}`, "k-dl")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d body %s", resp.StatusCode, body)
	}
	var ack WriteAckJSON
	if err := json.Unmarshal(body, &ack); err != nil || !ack.Accepted || ack.Seq == 0 {
		t.Fatalf("ack = %s err %v", body, err)
	}
	if resp.Header.Get("X-Store-Day") == "" || resp.Header.Get("X-Api-Version") != "1" {
		t.Fatalf("missing write headers: %+v", resp.Header)
	}

	// Idempotency-Key replay: same ack, deduped, nothing logged twice.
	resp, body = postJSON(t, base+"/download", `{"user":7}`, "k-dl")
	var replay WriteAckJSON
	if err := json.Unmarshal(body, &replay); err != nil || !replay.Deduped || replay.Seq != ack.Seq {
		t.Fatalf("replay status %d ack %s (want seq %d deduped)", resp.StatusCode, body, ack.Seq)
	}

	// Natural-key duplicate without the key: 409 envelope.
	resp, body = postJSON(t, base+"/download", `{"user":7}`, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: status %d body %s", resp.StatusCode, body)
	}
	var e apiwire.ErrorJSON
	if json.Unmarshal(body, &e) != nil || e.Error.Code != "duplicate" {
		t.Fatalf("duplicate envelope: %s", body)
	}

	// Validation failures: 422 envelope.
	for _, tc := range []struct{ path, body string }{
		{"/download", `{}`},                     // user missing
		{"/download", `{"user":-1}`},            // user negative
		{"/rate", `{"user":8}`},                 // rating missing
		{"/rate", `{"user":8,"rating":6}`},      // rating out of range
		{"/comments", `{"user":8,"rating":9}`},  // comment rating out of range
		{"/comments", `{"user":-2,"rating":3}`}, // user negative
	} {
		resp, body = postJSON(t, base+tc.path, tc.body, "")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("POST %s %s: status %d body %s", tc.path, tc.body, resp.StatusCode, body)
		}
		if json.Unmarshal(body, &e) != nil || e.Error.Code != "validation_failed" {
			t.Fatalf("POST %s %s: envelope %s", tc.path, tc.body, body)
		}
	}

	// Malformed JSON: 400.
	resp, body = postJSON(t, base+"/rate", `{"user":`, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d body %s", resp.StatusCode, body)
	}

	// Unknown app: 404 envelope.
	resp, body = postJSON(t, ts.URL+"/api/v1/apps/99999999/download", `{"user":1}`, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown app: status %d body %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &e) != nil || e.Error.Code != "app_not_found" {
		t.Fatalf("unknown app envelope: %s", body)
	}

	// Rate and comment accepted.
	if resp, body = postJSON(t, base+"/rate", `{"user":7,"rating":5}`, ""); resp.StatusCode != 200 {
		t.Fatalf("rate: status %d body %s", resp.StatusCode, body)
	}
	if resp, body = postJSON(t, base+"/comments", `{"user":7,"rating":4}`, ""); resp.StatusCode != 200 {
		t.Fatalf("comment: status %d body %s", resp.StatusCode, body)
	}
}

func TestWriteBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50,
		Writes: &wal.Config{MaxPending: 2, MaxBatch: 1}})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/api/v1/apps/1/download",
			`{"user":`+strconv.Itoa(i)+`}`, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fill %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/api/v1/apps/1/download", `{"user":5}`, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backpressure 429 missing Retry-After")
	}
	var e apiwire.ErrorJSON
	if json.Unmarshal(body, &e) != nil || e.Error.Code != "wal_backpressure" || e.Error.RetryAfterMS <= 0 {
		t.Fatalf("backpressure envelope: %s", body)
	}
	if st := s.WALStats(); st.Backpressure != 1 || st.Pending != 2 {
		t.Fatalf("wal stats: %+v", st)
	}
	// The roll drains the buffer; writes flow again.
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/api/v1/apps/1/download", `{"user":5}`, ""); resp.StatusCode != 200 {
		t.Fatalf("post-roll: status %d body %s", resp.StatusCode, body)
	}
}

// TestMethodNotAllowed pins the 405 contract: known routes answer wrong
// methods with Allow + the envelope.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	cases := []struct {
		method, path string
		status       int
		allow        string
	}{
		{"POST", "/api/v1/stats", 405, "GET, HEAD"},
		{"DELETE", "/api/v1/apps", 405, "GET, HEAD"},
		{"POST", "/api/v1/apps/1", 405, "GET, HEAD"},
		{"POST", "/api/v1/apps/1/apk", 405, "GET, HEAD"},
		{"GET", "/api/v1/apps/1/download", 405, "POST"},
		{"GET", "/api/v1/apps/1/rate", 405, "POST"},
		{"DELETE", "/api/v1/apps/1/comments", 405, "GET, HEAD, POST"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var e apiwire.ErrorJSON
		if json.Unmarshal(body, &e) != nil || e.Error.Code != "method_not_allowed" {
			t.Fatalf("%s %s: envelope %s", tc.method, tc.path, body)
		}
	}
}

// TestWriteVisibleNextDay pins the acceptance criterion: an acknowledged
// write is visible in the day-D+1 snapshot — the download count, the
// comment stream, and the store total all move; the written app's ETags
// advance while an untouched app still revalidates with a 304.
func TestWriteVisibleNextDay(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})

	var before AppJSON
	if code := getJSON(t, ts.URL+"/api/v1/apps/3", &before); code != 200 {
		t.Fatalf("detail: status %d", code)
	}
	var statsBefore StatsJSON
	getJSON(t, ts.URL+"/api/v1/stats", &statsBefore)

	// An untouched app's validators, for the cross-roll 304 check.
	untouchedDetail := etagOf(t, ts.URL+"/api/v1/apps/9")
	untouchedComments := etagOf(t, ts.URL+"/api/v1/apps/9/comments")
	writtenComments := etagOf(t, ts.URL+"/api/v1/apps/3/comments")

	for _, post := range []struct{ path, body string }{
		{"/api/v1/apps/3/download", `{"user":11}`},
		{"/api/v1/apps/3/download", `{"user":12}`},
		{"/api/v1/apps/3/rate", `{"user":11,"rating":5}`},
		{"/api/v1/apps/3/comments", `{"user":12,"rating":2}`},
	} {
		if resp, body := postJSON(t, ts.URL+post.path, post.body, ""); resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d body %s", post.path, resp.StatusCode, body)
		}
	}

	// Before the roll nothing is visible: the read path serves the
	// published snapshot untouched.
	var mid AppJSON
	getJSON(t, ts.URL+"/api/v1/apps/3", &mid)
	if mid.Downloads != before.Downloads {
		t.Fatalf("write visible before day-roll: %d -> %d", before.Downloads, mid.Downloads)
	}

	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}

	var after AppJSON
	if code := getJSON(t, ts.URL+"/api/v1/apps/3", &after); code != 200 {
		t.Fatalf("detail after roll: status %d", code)
	}
	// The simulation itself may add organic downloads on top of ours, so
	// the bound is >= +2.
	if after.Downloads < before.Downloads+2 {
		t.Fatalf("downloads %d -> %d, want >= +2", before.Downloads, after.Downloads)
	}

	var cs []CommentJSON
	if code := getJSON(t, ts.URL+"/api/v1/apps/3/comments", &cs); code != 200 {
		t.Fatal("comments after roll")
	}
	foundRate, foundComment := false, false
	for _, c := range cs {
		if c.User == 11 && c.Rating == 5 {
			foundRate = true
		}
		if c.User == 12 && c.Rating == 2 {
			foundComment = true
		}
	}
	if !foundRate || !foundComment {
		t.Fatalf("merged comments missing writes: %+v", cs)
	}

	var statsAfter StatsJSON
	getJSON(t, ts.URL+"/api/v1/stats", &statsAfter)
	if statsAfter.TotalDownloads < statsBefore.TotalDownloads+2 {
		t.Fatalf("stats total %d -> %d", statsBefore.TotalDownloads, statsAfter.TotalDownloads)
	}

	// ETag semantics across the roll: the written app's comment ETag moved,
	// untouched apps still revalidate.
	if got := etagOf(t, ts.URL+"/api/v1/apps/3/comments"); got == writtenComments {
		t.Fatalf("written app's comments ETag did not advance: %q", got)
	}
	if got := etagOf(t, ts.URL+"/api/v1/apps/9/comments"); got != untouchedComments {
		t.Fatalf("untouched comments ETag changed: %q -> %q", untouchedComments, got)
	}
	if code := condGet(t, ts.URL+"/api/v1/apps/9", untouchedDetail); code != http.StatusNotModified {
		// The untouched app may organically change; accept 200 only if its
		// ETag really moved.
		if etagOf(t, ts.URL+"/api/v1/apps/9") == untouchedDetail {
			t.Fatalf("conditional GET returned %d with unchanged ETag", code)
		}
	}

	// No lost acknowledged writes: a second (empty) roll and the counters
	// balance.
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if st := s.WALStats(); st.Accepted != st.Merged || st.Pending != 0 {
		t.Fatalf("wal stats after drain: %+v", st)
	}
}

func etagOf(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.Header.Get("Etag")
}

func condGet(t *testing.T, url, etag string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrawlByteIdenticalUnderWrites pins the mid-crawl isolation
// satellite: a cursor crawl with conditional GETs over day D serves
// byte-identical responses whether or not the WAL is absorbing writes,
// because writes merge only at the next roll.
func TestCrawlByteIdenticalUnderWrites(t *testing.T) {
	newPair := func() (*Server, *httptest.Server) {
		mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
		mcfg.Days = 10
		m, err := marketsim.New(mcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := New(m, Config{PageSize: 50})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	_, quiet := newPair()
	_, noisy := newPair()

	crawl := func(ts *httptest.Server, writeEvery int) (pages []string, etags []string) {
		cursor := ""
		step := 0
		for {
			url := ts.URL + "/api/v1/apps?cursor=" + cursor
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("cursor page: status %d", resp.StatusCode)
			}
			pages = append(pages, string(b))
			etags = append(etags, resp.Header.Get("Etag"))
			// Revalidate the page we just fetched: must be a 304 even while
			// writes land.
			if code := condGet(t, url, resp.Header.Get("Etag")); code != http.StatusNotModified {
				t.Fatalf("mid-crawl revalidation: status %d", code)
			}
			if writeEvery > 0 && step%writeEvery == 0 {
				app := strconv.Itoa(step % 20)
				postJSON(t, ts.URL+"/api/v1/apps/"+app+"/download",
					`{"user":`+strconv.Itoa(1000+step)+`}`, "")
				postJSON(t, ts.URL+"/api/v1/apps/"+app+"/comments",
					`{"user":`+strconv.Itoa(1000+step)+`,"rating":3}`, "")
			}
			step++
			var page CursorPageJSON
			if err := json.Unmarshal(b, &page); err != nil {
				t.Fatal(err)
			}
			if page.NextCursor == "" {
				return pages, etags
			}
			cursor = page.NextCursor
		}
	}

	quietPages, quietEtags := crawl(quiet, 0)
	noisyPages, noisyEtags := crawl(noisy, 1)
	if len(quietPages) != len(noisyPages) {
		t.Fatalf("page counts differ: %d vs %d", len(quietPages), len(noisyPages))
	}
	for i := range quietPages {
		if quietPages[i] != noisyPages[i] {
			t.Fatalf("page %d bytes differ under writes", i)
		}
		if quietEtags[i] != noisyEtags[i] {
			t.Fatalf("page %d ETags differ under writes: %q vs %q", i, quietEtags[i], noisyEtags[i])
		}
	}

	// Comments documents too: fetch a written app's stream on both.
	q := etagOf(t, quiet.URL+"/api/v1/apps/0/comments")
	n := etagOf(t, noisy.URL+"/api/v1/apps/0/comments")
	if q != n {
		t.Fatalf("comments ETag differs mid-day: %q vs %q", q, n)
	}
}

// TestPrepareCommitMergesWrites drives the two-phase roll: writes before
// PrepareDay merge into the prepared day; writes landing in the commit
// window (between prepare and commit) stay buffered for the next epoch —
// never split across days.
func TestPrepareCommitMergesWrites(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50})
	var before AppJSON
	getJSON(t, ts.URL+"/api/v1/apps/5", &before)

	if resp, body := postJSON(t, ts.URL+"/api/v1/apps/5/download", `{"user":42}`, ""); resp.StatusCode != 200 {
		t.Fatalf("pre-prepare write: %d %s", resp.StatusCode, body)
	}
	day, err := s.PrepareDay()
	if err != nil {
		t.Fatal(err)
	}
	// Commit-window write: must not appear in the prepared day.
	if resp, body := postJSON(t, ts.URL+"/api/v1/apps/5/download", `{"user":43}`, ""); resp.StatusCode != 200 {
		t.Fatalf("commit-window write: %d %s", resp.StatusCode, body)
	}
	if got := s.CommitDay(); got != day {
		t.Fatalf("committed day %d, want %d", got, day)
	}
	var after AppJSON
	getJSON(t, ts.URL+"/api/v1/apps/5", &after)
	if after.Downloads < before.Downloads+1 {
		t.Fatalf("pre-prepare write lost: %d -> %d", before.Downloads, after.Downloads)
	}
	if st := s.WALStats(); st.Pending != 1 {
		t.Fatalf("commit-window write should be pending: %+v", st)
	}
	// The next roll carries it.
	if _, err := s.PrepareDay(); err != nil {
		t.Fatal(err)
	}
	s.CommitDay()
	if st := s.WALStats(); st.Pending != 0 || st.Accepted != st.Merged {
		t.Fatalf("wal stats after second roll: %+v", st)
	}
	var final AppJSON
	getJSON(t, ts.URL+"/api/v1/apps/5", &final)
	if final.Downloads < before.Downloads+2 {
		t.Fatalf("commit-window write lost: %d -> %d", before.Downloads, final.Downloads)
	}
}

// TestWriteMetricsPublished checks the write block appears on /metrics.
func TestWriteMetricsPublished(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	postJSON(t, ts.URL+"/api/v1/apps/2/download", `{"user":1}`, "")
	postJSON(t, ts.URL+"/api/v1/apps/2/download", `{"user":1}`, "") // 409
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(b)
	for _, want := range []string{
		`store_writes_total{endpoint="download",result="accepted"} 1`,
		`store_writes_total{endpoint="download",result="duplicate"} 1`,
		"wal_accepted_total 1",
		"wal_pending_records 1",
		"wal_batch_records_count 1",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q", want)
		}
	}
}

// TestWriteConcurrencyNoLostAcks hammers the write path concurrently
// across a day-roll and checks every acknowledged write is merged.
func TestWriteConcurrencyNoLostAcks(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50, Writes: &wal.Config{
		MaxBatch: 8, FlushInterval: 200 * time.Microsecond}})
	done := make(chan int64)
	const users = 60
	for w := 0; w < 4; w++ {
		go func(w int) {
			var acked int64
			for u := 0; u < users; u++ {
				body := `{"user":` + strconv.Itoa(w*users+u) + `}`
				resp, err := http.Post(ts.URL+"/api/v1/apps/1/download", "application/json",
					bytes.NewReader([]byte(body)))
				if err == nil {
					if resp.StatusCode == http.StatusOK {
						acked++
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
				if u == users/2 && w == 0 {
					if err := s.AdvanceDay(); err != nil {
						t.Error(err)
					}
				}
			}
			done <- acked
		}(w)
	}
	var acked int64
	for w := 0; w < 4; w++ {
		acked += <-done
	}
	// Two quiescent rolls drain everything.
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	st := s.WALStats()
	if st.Accepted != acked || st.Merged != acked || st.Pending != 0 {
		t.Fatalf("acked %d but wal stats %+v", acked, st)
	}
}
