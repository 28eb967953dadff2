package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"planetapps/internal/apiwire"
	"planetapps/internal/storeserver"
)

// --- helpers ---------------------------------------------------------------

// midScale is a catalog of a few hundred apps: several 100-row pages, so
// page sizes up to the default meet shard boundaries and page breaks.
const midScale = 0.25

// fleetAt builds a comment-less in-process fleet over the test store at
// the given scale.
func fleetAt(t *testing.T, shards, vnodes, pageSize int, scale float64) *Inproc {
	t.Helper()
	ip, err := NewInproc(Options{
		Shards: shards, Vnodes: vnodes,
		Store: testStore, Scale: scale, Seed: testSeed, Days: testDays,
		Server: storeserver.Config{PageSize: pageSize},
	})
	if err != nil {
		t.Fatalf("NewInproc: %v", err)
	}
	return ip
}

// singleAt builds the unsharded store equivalent to fleetAt's.
func singleAt(t *testing.T, pageSize int, scale float64) *storeserver.Server {
	t.Helper()
	return handBuilt(t, pageSize, scale, 0)
}

// walkWith is walkCursor with a query suffix on every request, starting
// from a given cursor, and a roll injected after page rollAfter (<0:
// never).
func walkWith(t *testing.T, h http.Handler, cursor, suffix string, rollAfter int, roll func() error) []cursorPage {
	t.Helper()
	var pages []cursorPage
	for {
		resp, body := get(t, h, "/api/v1/apps?cursor="+cursor+suffix, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor walk: status %d: %s", resp.StatusCode, body)
		}
		var page cursorPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("cursor walk: %v", err)
		}
		pages = append(pages, page)
		if page.NextCursor == "" {
			return pages
		}
		cursor = page.NextCursor
		if len(pages) > 10000 {
			t.Fatal("cursor walk does not terminate")
		}
		if len(pages)-1 == rollAfter {
			if err := roll(); err != nil {
				t.Fatalf("mid-walk roll: %v", err)
			}
		}
	}
}

// rowID extracts a listing row's id.
func rowID(t *testing.T, row json.RawMessage) int32 {
	t.Helper()
	var key struct {
		ID *int32 `json:"id"`
	}
	if err := json.Unmarshal(row, &key); err != nil || key.ID == nil {
		t.Fatalf("row %s has no id: %v", row, err)
	}
	return *key.ID
}

// --- the merge guard -------------------------------------------------------

// TestMergeTopsUpUnderDeliveringShards pins the merge guard. Shards built
// with a page size of 40 clamp every slice the gateway asks for to 40
// rows, so a gateway merging 100-row pages over one or two of them is
// handed less than the page needs: it must fetch the rest before
// emitting past a drained shard's next anchor, and still serve the pages
// a single 100-row node serves. Before the guard the merge emitted on
// from the other shards (or cut the page short), which only went
// unnoticed because every shard was asked for a full page and none
// clamped.
func TestMergeTopsUpUnderDeliveringShards(t *testing.T) {
	single := walkCursor(t, singleAt(t, 100, midScale).Handler())
	if len(single) < 3 {
		t.Fatalf("catalog fits %d pages; grow it", len(single))
	}
	for _, shards := range []int{1, 2, 4} {
		ip := fleetAt(t, shards, 0, 40, midScale)
		gw := NewGateway(Config{Shards: ip.Shards(), PageSize: 100})
		samePages(t, single, walkCursor(t, gw), strconv.Itoa(shards)+" clamping shards")
		if shards <= 2 && gw.Stats().TopUps == 0 {
			t.Fatalf("%d shards clamping at 40 under 100-row pages: no top-up fetch happened", shards)
		}
	}
}

// TestForgedCursorUnequalAnchors walks from a hand-made g1: cursor whose
// anchors are wildly apart, so the ring-sized quotas are wrong for most
// shards (one is owed nearly the whole page, others a single probe row).
// The walk must still yield, exactly once and ascending, every row at or
// past its owner's anchor, with a single node's bytes.
func TestForgedCursorUnequalAnchors(t *testing.T) {
	const shards = 4
	var all, want []json.RawMessage
	for _, page := range walkCursor(t, singleAt(t, 100, midScale).Handler()) {
		all = append(all, page.Apps...)
	}
	ring := NewRing(shards, 0)
	for _, anchors := range [][]int32{
		{0, 400, 3, 1 << 30},
		{500, 0, 0, 0},
		{7, 7, 300, 2},
		{1<<31 - 1, 1<<31 - 1, 1<<31 - 1, 10},
	} {
		want = want[:0]
		for _, row := range all {
			if id := rowID(t, row); id >= anchors[ring.Owner(id)] {
				want = append(want, row)
			}
		}
		// Over full-page shards and over clamping ones.
		for _, shardPage := range []int{100, 40} {
			ip := fleetAt(t, shards, 0, shardPage, midScale)
			gw := NewGateway(Config{Shards: ip.Shards(), PageSize: 100})
			var got []json.RawMessage
			for _, page := range walkWith(t, gw, packCursor(anchors), "", -1, nil) {
				if len(page.Apps) > 100 {
					t.Fatalf("anchors %v: page of %d rows", anchors, len(page.Apps))
				}
				got = append(got, page.Apps...)
			}
			if len(got) != len(want) {
				t.Fatalf("anchors %v over %d-row shards: %d rows, want %d", anchors, shardPage, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("anchors %v over %d-row shards: row %d is %s, want %s", anchors, shardPage, i, got[i], want[i])
				}
			}
		}
	}
}

// limitRecorder notes the limit= of every listing request the shards
// behind wrap are sent.
type limitRecorder struct {
	mu   sync.Mutex
	seen []int
}

func (l *limitRecorder) wrap(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if v := req.URL.Query().Get("limit"); v != "" {
			n, _ := strconv.Atoi(v)
			l.mu.Lock()
			l.seen = append(l.seen, n)
			l.mu.Unlock()
		}
		return next.RoundTrip(req)
	})
}

// TestQuotasShipOnePageOfRows pins the ring-sized scatter on a dense
// catalog: every merged page costs exactly one request per shard, the
// shards together are asked for the page's rows (plus a one-row probe of
// each shard owed nothing), not a full page each, and no page of the
// walk needs a second round.
func TestQuotasShipOnePageOfRows(t *testing.T) {
	const shards, pageSize = 4, 100
	ip := fleetAt(t, shards, 0, pageSize, midScale)
	rec := &limitRecorder{}
	clients := append([]ShardClient(nil), ip.Shards()...)
	for i := range clients {
		clients[i].HTTP = &http.Client{Transport: rec.wrap(clients[i].HTTP.Transport)}
	}
	gw := NewGateway(Config{Shards: clients, PageSize: pageSize})
	cursor, pages := "", 0
	for {
		rec.mu.Lock()
		rec.seen = rec.seen[:0]
		rec.mu.Unlock()
		resp, body := get(t, gw, "/api/v1/apps?cursor="+cursor, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, resp.StatusCode)
		}
		var page cursorPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, n := range rec.seen {
			sum += n
		}
		if len(rec.seen) != shards || sum > pageSize+shards-1 {
			t.Fatalf("page %d: shards were asked for %v rows; want one request each, at most %d rows in all",
				pages, rec.seen, pageSize+shards-1)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages < 3 {
		t.Fatalf("walk was %d pages; grow the catalog", pages)
	}
	if n := gw.Stats().TopUps; n != 0 {
		t.Fatalf("dense catalog, honest cursors: %d top-up fetches, want 0", n)
	}
}

// --- ?limit= ---------------------------------------------------------------

// TestGatewayHonoursLimit holds the gateway to API.md's
// `?cursor=C[&limit=K]` the way a single node obeys it: K rows a page
// for a positive K, clamped to the page size, 400 bad_limit otherwise.
func TestGatewayHonoursLimit(t *testing.T) {
	const pageSize = 20
	ip := fleetAt(t, 4, 0, pageSize, midScale)
	srv := singleAt(t, pageSize, midScale)
	defResp, defBody := get(t, ip.Handler(), "/api/v1/apps?cursor=", nil)
	defTag := defResp.Header.Get("Etag")
	for _, tc := range []struct {
		limit string
		rows  int // rows on a full page; 0 = the request is refused
	}{
		{"1", 1}, {"7", 7}, {strconv.Itoa(pageSize), pageSize}, {strconv.Itoa(pageSize + 50), pageSize},
		{"0", 0}, {"x", 0}, {"-3", 0}, {"", pageSize},
	} {
		suffix := "&limit=" + tc.limit
		respS, bodyS := get(t, srv.Handler(), "/api/v1/apps?cursor="+suffix, nil)
		respG, bodyG := get(t, ip.Handler(), "/api/v1/apps?cursor="+suffix, nil)
		if respG.StatusCode != respS.StatusCode {
			t.Fatalf("limit=%q: gateway answered %d, single node %d", tc.limit, respG.StatusCode, respS.StatusCode)
		}
		if tc.rows == 0 {
			var envS, envG apiwire.ErrorJSON
			if json.Unmarshal(bodyS, &envS) != nil || json.Unmarshal(bodyG, &envG) != nil ||
				respG.StatusCode != http.StatusBadRequest || envG.Error.Code != "bad_limit" || envG != envS {
				t.Fatalf("limit=%q: gateway %d %s, single node %d %s", tc.limit, respG.StatusCode, bodyG, respS.StatusCode, bodyS)
			}
			continue
		}
		single := walkWith(t, srv.Handler(), "", suffix, -1, nil)
		merged := walkWith(t, ip.Handler(), "", suffix, -1, nil)
		samePages(t, single, merged, "limit="+tc.limit)
		if got := len(merged[0].Apps); got != tc.rows {
			t.Fatalf("limit=%q: first page has %d rows, want %d", tc.limit, got, tc.rows)
		}
		// The limit is part of what the validator names: a page of another
		// length never revalidates against the default page's ETag, a
		// clamped or absent limit is the default page, and either way the
		// page answers 304 to its own validator.
		tag := respG.Header.Get("Etag")
		if (tc.rows == pageSize) != (tag == defTag) {
			t.Fatalf("limit=%q: etag %s vs default page's %s", tc.limit, tag, defTag)
		}
		if tc.rows == pageSize && !bytes.Equal(bodyG, defBody) {
			t.Fatalf("limit=%q: body differs from the default page", tc.limit)
		}
		if resp304, _ := get(t, ip.Handler(), "/api/v1/apps?cursor="+suffix,
			http.Header{"If-None-Match": []string{tag}}); resp304.StatusCode != http.StatusNotModified {
			t.Fatalf("limit=%q: revalidation answered %d, want 304", tc.limit, resp304.StatusCode)
		}
	}
	// A bad cursor outranks a bad limit, as on the store.
	resp, body := get(t, ip.Handler(), "/api/v1/apps?cursor=zzz&limit=0", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad_cursor") {
		t.Fatalf("bad cursor and bad limit: %d %s", resp.StatusCode, body)
	}
}

// --- hostile shards --------------------------------------------------------

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingReader counts what is read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestShardBodyCaps puts the gateway in front of a shard that answers
// with far more than a listing slice or a stats document could be. Both
// routes must answer 502 shard_bad_response having read no more than
// their cap — whether the shard declares the size or just keeps sending.
func TestShardBodyCaps(t *testing.T) {
	for _, tc := range []struct {
		path     string
		cap      int64
		declared bool
	}{
		{"/api/v1/apps?cursor=", maxListBody, true},
		{"/api/v1/apps?cursor=", maxListBody, false},
		{"/api/v1/apps", maxListBody, false},
		{"/api/v1/stats", maxStatsBody, true},
		{"/api/v1/stats", maxStatsBody, false},
	} {
		// Leading whitespace is legal JSON, so only the cap can refuse it.
		read := &countingReader{r: io.LimitReader(zeros{}, 64<<20)}
		shard := ShardClient{Name: "fat", Base: "http://fat", HTTP: &http.Client{
			Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
				resp := &http.Response{
					StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
					Header:        http.Header{"X-Store-Day": []string{"0"}},
					Body:          io.NopCloser(read),
					ContentLength: -1,
					Request:       req,
				}
				if tc.declared {
					resp.ContentLength = 64 << 20
				}
				return resp, nil
			})}}
		gw := NewGateway(Config{Shards: []ShardClient{shard}})
		resp, body := get(t, gw, tc.path, nil)
		var env apiwire.ErrorJSON
		if err := json.Unmarshal(body, &env); err != nil ||
			resp.StatusCode != http.StatusBadGateway || env.Error.Code != "shard_bad_response" {
			t.Fatalf("%s (declared=%v): got %d %s, want 502 shard_bad_response", tc.path, tc.declared, resp.StatusCode, body)
		}
		if read.n > tc.cap+1 {
			t.Fatalf("%s (declared=%v): read %d bytes of the shard's body, cap is %d", tc.path, tc.declared, read.n, tc.cap)
		}
		if gw.Stats().ShardErrors == 0 {
			t.Fatalf("%s: shard error not counted", tc.path)
		}
	}
}

// TestMalformedShardPages feeds the gateway listing slices that are
// valid JSON but not slices of this listing; each must be refused, not
// merged.
func TestMalformedShardPages(t *testing.T) {
	for name, body := range map[string]string{
		"descending rows":          `{"apps":[{"id":5},{"id":3}],"total":9}`,
		"repeated row":             `{"apps":[{"id":5},{"id":5}],"total":9}`,
		"negative id":              `{"apps":[{"id":-1}],"total":9}`,
		"null row":                 `{"apps":[null],"total":9}`,
		"cursor without rows":      `{"apps":[],"next_cursor":"` + storeserver.EncodeCursor(4) + `","total":9}`,
		"cursor not past the rows": `{"apps":[{"id":5}],"next_cursor":"` + storeserver.EncodeCursor(5) + `","total":9}`,
		"undecodable cursor":       `{"apps":[{"id":5}],"next_cursor":"!!","total":9}`,
		"truncated":                `{"apps":[{"id":5}],"total":9`,
		"not a page":               `[1,2,3]`,
	} {
		shard := ShardClient{Name: "odd", Base: "http://odd", HTTP: &http.Client{
			Transport: HandlerTransport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Store-Day", "0")
				io.WriteString(w, body) //nolint:errcheck
			})}}}
		gw := NewGateway(Config{Shards: []ShardClient{shard}})
		resp, got := get(t, gw, "/api/v1/apps?cursor=", nil)
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(got), "shard_bad_response") {
			t.Fatalf("%s: got %d %s, want 502 shard_bad_response", name, resp.StatusCode, got)
		}
	}
}

// --- gateway vs single node over random topologies -------------------------

// TestRandomTopologiesMatchSingleNode is the seeded differential sweep:
// gateways over random fleets — 1 to 12 shards, sparse to dense rings,
// page sizes 1 to 100, some shard owning nothing — each walked in full
// across a fleet day-roll and compared, page by page, rows and totals,
// with a single node walked and rolled the same way.
func TestRandomTopologiesMatchSingleNode(t *testing.T) {
	const scale = 0.1
	rng := rand.New(rand.NewSource(20130923))
	type topo struct{ shards, vnodes, pageSize int }
	cases := []topo{{12, 1, 9}, {1, 0, 100}, {12, 0, 1}} // an empty shard, the degenerate fleet, every row a page
	for len(cases) < 12 {
		cases = append(cases, topo{
			shards:   1 + rng.Intn(12),
			vnodes:   []int{0, 1, 3, 16, 200}[rng.Intn(5)],
			pageSize: 1 + rng.Intn(100),
		})
	}
	sawEmpty := false
	for _, tc := range cases {
		ip := fleetAt(t, tc.shards, tc.vnodes, tc.pageSize, scale)
		srv := singleAt(t, tc.pageSize, scale)
		owned := make([]int, tc.shards)
		for id := 0; id < ip.NumApps(); id++ {
			owned[ip.Gateway.Ring().Owner(int32(id))]++
		}
		for _, n := range owned {
			sawEmpty = sawEmpty || n == 0
		}
		pages := (ip.NumApps() + tc.pageSize - 1) / tc.pageSize
		rollAfter := rng.Intn(pages)
		label := "shards=" + itoa(tc.shards) + " vnodes=" + itoa(tc.vnodes) + " page=" + itoa(tc.pageSize) + " roll after page " + itoa(rollAfter)
		single := walkWith(t, srv.Handler(), "", "", rollAfter, srv.AdvanceDay)
		merged := walkWith(t, ip.Handler(), "", "", rollAfter, ip.AdvanceDay)
		samePages(t, single, merged, label)
		if ip.Day() != srv.Day() {
			t.Fatalf("%s: fleet day %d, single node day %d", label, ip.Day(), srv.Day())
		}
		// And once more from the top, wholly inside the new day.
		samePages(t, walkCursor(t, srv.Handler()), walkCursor(t, ip.Handler()), label+", next day")
	}
	if !sawEmpty {
		t.Fatal("no topology left a shard empty; the sweep must cover that edge")
	}
}

// --- allocation budget -----------------------------------------------------

// TestGatewayListAllocBudget gates what one merged page costs the heap:
// a 100-row cursor page over four in-process shards, everything from the
// gateway's ServeHTTP down through the shards' handlers. The
// decode/re-encode merge took ~3,500 allocations for this page; the
// scan/splice merge takes ~420, nearly all of them the four shard
// round-trips. The ceiling leaves room for noise, not for a decoder.
func TestGatewayListAllocBudget(t *testing.T) {
	const budget = 600
	ip := fleetAt(t, 4, 0, 100, midScale)
	_, first := get(t, ip.Handler(), "/api/v1/apps?cursor=", nil)
	var page cursorPage
	if err := json.Unmarshal(first, &page); err != nil || len(page.Apps) != 100 || page.NextCursor == "" {
		t.Fatalf("first page: %d rows, next %q, err %v", len(page.Apps), page.NextCursor, err)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/apps?cursor="+page.NextCursor, nil)
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		ip.Gateway.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("merged page: status %d", rec.Code)
		}
	})
	t.Logf("merged 100-row page over 4 shards: %.0f allocs", allocs)
	if allocs > budget {
		t.Fatalf("merged 100-row page over 4 shards: %.0f allocs, budget %d", allocs, budget)
	}
}

// TestGatewayProxyAllocBudget is the same tripwire for the gateway's other
// request class: one detail document proxied to its owning shard, from the
// gateway's ServeHTTP down through that shard's warm handler. It takes
// about 35 allocations, nearly all of them net/http's request and response
// on the gateway→shard hop (the gateway's own are the outbound header, the
// path and the copied response headers); the ceiling leaves room for
// noise, not for a buffered body or a decoded document.
func TestGatewayProxyAllocBudget(t *testing.T) {
	const budget = 50
	ip := fleetAt(t, 4, 0, 100, midScale)
	req := httptest.NewRequest(http.MethodGet, "/api/v1/apps/7", nil)
	serve := func() {
		rec := httptest.NewRecorder()
		ip.Gateway.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("proxied detail: status %d", rec.Code)
		}
	}
	serve() // the shard renders the document once; after that it is a hit
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("proxied detail document over 4 shards: %.0f allocs", allocs)
	if allocs > budget {
		t.Fatalf("proxied detail document over 4 shards: %.0f allocs, budget %d", allocs, budget)
	}
}
