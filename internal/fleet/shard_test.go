package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
	"planetapps/internal/storeserver"
)

// reply is everything one exchange through the in-memory transport
// produced. The transport stamps no Date, so nothing needs masking.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func exchange(t *testing.T, h http.Handler, method, path string, hdr http.Header, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, "http://test"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := (&http.Client{Transport: HandlerTransport{Handler: h}}).Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", method, path, err)
	}
	return reply{resp.StatusCode, resp.Header, b}
}

// TestFleetOfOneIsTheSingleNode holds the front handler of a one-shard
// fleet to a store assembled by hand from the same profile and seed:
// status, every header and the body of every answer must be identical —
// the odd-request table, a full cursor walk, the documents with and
// without If-None-Match, a write and its replay — on day 0 and again
// after a roll. It is what lets loadtest and crawl drop their
// single-store arm: the store NewShard assembles is that store.
func TestFleetOfOneIsTheSingleNode(t *testing.T) {
	const pageSize = 20
	ref := singleNode(t, pageSize)
	ip := newFleet(t, 1, pageSize)
	refH, front := ref.Handler(), ip.Front()

	// same sends one request to both and returns the (identical) reply.
	same := func(method, path string, hdr http.Header, body string) reply {
		t.Helper()
		want := exchange(t, refH, method, path, hdr, body)
		got := exchange(t, front, method, path, hdr, body)
		if got.status != want.status || !reflect.DeepEqual(got.header, want.header) || !bytes.Equal(got.body, want.body) {
			t.Fatalf("%s %s %v: the fleet of one differs from the hand-built store\n  store %d %v %.200s\n  fleet %d %v %.200s",
				method, path, hdr, want.status, want.header, want.body, got.status, got.header, got.body)
		}
		return want
	}
	inm := func(etag string) http.Header { return http.Header{"If-None-Match": []string{etag}} }

	for day := 0; day < 2; day++ {
		if day > 0 {
			if err := ref.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
			if err := ip.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		stats := same("GET", "/api/v1/stats", nil, "")
		for _, rq := range oddRequests(stats.header.Get("Etag")) {
			var hdr http.Header
			if rq.inm != "" {
				hdr = inm(rq.inm)
			}
			if r := same(rq.method, rq.path, hdr, ""); r.status != rq.want {
				t.Errorf("%s %s: status %d, want %d", rq.method, rq.path, r.status, rq.want)
			}
		}
		// The listing: the bare path, then the cursor walk to its end.
		same("GET", "/api/v1/apps", nil, "")
		for cursor, pages := "", 0; ; pages++ {
			r := same("GET", "/api/v1/apps?cursor="+cursor, nil, "")
			var page cursorPage
			mustUnmarshal(t, r.body, &page)
			if cursor = page.NextCursor; cursor == "" {
				break
			}
			if pages > 10000 {
				t.Fatal("cursor walk does not terminate")
			}
		}
		// Documents, plain, gzip-negotiated and revalidated.
		for _, path := range []string{"/api/v1/stats", "/api/v1/apps/3", "/api/v1/apps/3/comments", "/api/v1/apps/3/apk"} {
			r := same("GET", path, nil, "")
			if r.status != http.StatusOK {
				t.Fatalf("GET %s: %d", path, r.status)
			}
			same("GET", path, http.Header{"Accept-Encoding": []string{"gzip"}}, "")
			if r := same("GET", path, inm(r.header.Get("Etag")), ""); r.status != http.StatusNotModified {
				t.Fatalf("GET %s revalidated: %d, want 304", path, r.status)
			}
		}
		// A write on each endpoint (a new user each day: a download is
		// recorded once per user and app), and its replay under the same key.
		json := http.Header{"Content-Type": []string{"application/json"}}
		user := strconv.Itoa(501 + day)
		for i, w := range []struct{ tail, body string }{
			{"download", `{"user":` + user + `}`},
			{"rate", `{"user":` + user + `,"rating":4}`},
			{"comments", `{"user":` + user + `,"rating":5}`},
		} {
			hdr := json.Clone()
			hdr.Set("Idempotency-Key", "one-"+strconv.Itoa(day)+"-"+strconv.Itoa(i))
			path := "/api/v1/apps/3/" + w.tail
			if r := same("POST", path, hdr, w.body); r.status != http.StatusOK {
				t.Fatalf("POST %s: %d %s", path, r.status, r.body)
			}
			if r := same("POST", path, hdr, w.body); !bytes.Contains(r.body, []byte(`"deduped":true`)) {
				t.Fatalf("POST %s replayed: %s, want a deduped ack", path, r.body)
			}
		}
	}
	if st := ip.Gateway.Stats(); st != (Stats{}) {
		t.Fatalf("the front door of a fleet of one crossed the gateway: %+v", st)
	}
}

// TestNewShardIsTheInprocMember pins that the one node appstored builds
// (NewShard(opts, k)) serves the rows and documents member k of the
// in-process fleet serves, ring partition and comment streams included.
func TestNewShardIsTheInprocMember(t *testing.T) {
	opts := Options{
		Shards: 3, Store: testStore, Scale: testScale, Seed: testSeed, Days: testDays,
		CommentUsers: 300, Server: storeserver.Config{PageSize: 20},
	}
	ip, err := NewInproc(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, member := range ip.Servers {
		srv, err := NewShard(opts, k)
		if err != nil {
			t.Fatal(err)
		}
		if srv.NumApps() == 0 {
			t.Fatalf("shard %d owns nothing: the comparison would be empty", k)
		}
		total += srv.NumApps()
		a, b := walkCursor(t, srv.Handler()), walkCursor(t, member.Handler())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d: NewShard's listing differs from the in-process member's", k)
		}
		for _, row := range a[0].Apps[:1] {
			var app struct {
				ID int `json:"id"`
			}
			mustUnmarshal(t, row, &app)
			for _, tail := range []string{"", "/comments"} {
				path := "/api/v1/apps/" + strconv.Itoa(app.ID) + tail
				x := exchange(t, srv.Handler(), "GET", path, nil, "")
				y := exchange(t, member.Handler(), "GET", path, nil, "")
				if x.status != http.StatusOK || !reflect.DeepEqual(x, y) {
					t.Fatalf("shard %d GET %s: %d vs %d, or bodies/headers differ", k, path, x.status, y.status)
				}
			}
		}
	}
	if whole := singleNode(t, 20).NumApps(); total != ip.NumApps() || total != whole {
		t.Fatalf("partitions hold %d apps, the fleet reports %d, a single node %d",
			total, ip.NumApps(), whole)
	}
	if _, err := NewShard(opts, 3); err == nil {
		t.Fatal("NewShard accepted an index outside the fleet")
	}
}

// TestFleetOfOneDrawsTheUnindexedFaultStream pins that one scenario and
// seed fault the same requests on a fleet of one as on a hand-built store
// armed with faultinject.New — and that members of a larger fleet, which
// are node-indexed, draw other streams.
func TestFleetOfOneDrawsTheUnindexedFaultStream(t *testing.T) {
	sc, err := faultinject.Lookup("error-burst")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.Scale(0)
	const seed = 0xC4A05
	statuses := func(h http.Handler) string {
		var sb strings.Builder
		for i := 0; i < 400; i++ {
			sb.WriteString(strconv.Itoa(exchange(t, h, "GET", "/api/v1/apps/"+strconv.Itoa(i%7), nil, "").status))
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	fleetOf := func(n int) *Inproc {
		ip, err := NewInproc(Options{
			Shards: n, Store: testStore, Scale: testScale, Seed: testSeed, Days: testDays,
			Chaos: &sc, ChaosSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ip
	}

	ref := singleNode(t, 0)
	ref.SetChaos(faultinject.New(sc, seed, nil))
	want := statuses(ref.Handler())
	if !strings.Contains(want, "503") || !strings.Contains(want, "200") {
		t.Fatalf("the scenario did not mix faults and successes: %s", want)
	}
	one := fleetOf(1)
	if got := statuses(one.Front()); got != want {
		t.Fatalf("fleet of one faulted other requests than faultinject.New\n want %s\n  got %s", want, got)
	}
	if one.FaultsInjected() != int64(strings.Count(want, "50")) {
		t.Fatalf("FaultsInjected = %d, the client saw %d faults", one.FaultsInjected(), strings.Count(want, "50"))
	}
	// Shard 1 of two sees exactly the requests a single node would when
	// they are sent to it directly; only its decision stream differs.
	if got := statuses(fleetOf(2).Servers[1].Handler()); strings.ReplaceAll(got, "404", "200") == want {
		t.Fatal("a member of a 2-shard fleet drew the un-indexed stream")
	}
}

// TestOneClientOneBucketThroughEveryTier sends one IPv6-loopback client to
// a rate-limited store directly, through the gateway, and through an edge
// cache, and requires the store to have kept one bucket: every tier reads
// and forwards the client chain with internal/apiwire, so "[::1]:5000"
// is "::1" whichever way it arrives.
func TestOneClientOneBucketThroughEveryTier(t *testing.T) {
	ip, err := NewInproc(Options{
		Shards: 1, Store: testStore, Scale: testScale, Seed: testSeed, Days: testDays,
		Server: storeserver.Config{RatePerSec: 1000, Burst: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := ip.Servers[0]
	edge, err := edgecache.New(edgecache.Config{
		Origin:          "http://store",
		OriginTransport: HandlerTransport{Handler: srv.Handler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	for _, tier := range []struct {
		name string
		h    http.Handler
		path string
	}{
		{"direct", srv.Handler(), "/api/v1/apps/1"},
		{"gateway", ip.Handler(), "/api/v1/apps/2"},
		{"edge", edge.Handler(), "/api/v1/apps/3"},
	} {
		req := httptest.NewRequest(http.MethodGet, tier.path, nil)
		req.RemoteAddr = "[::1]:5000"
		rec := httptest.NewRecorder()
		tier.h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: GET %s: %d %s", tier.name, tier.path, rec.Code, rec.Body)
		}
		if n := srv.LimiterBuckets(); n != 1 {
			t.Fatalf("after the %s request the store tracks %d client buckets, want 1", tier.name, n)
		}
	}
	if srv.RequestsServed() != 3 {
		t.Fatalf("the store served %d requests, want one per tier", srv.RequestsServed())
	}
}

// TestMergedMetricsCarryShardGauges requires the gateway's merged page to
// hold the gauges a shard computes when it is scraped (arena, GC) without
// anyone having scraped the shard first: the gateway fetches every
// shard's page through the shard's own /metrics handler.
func TestMergedMetricsCarryShardGauges(t *testing.T) {
	ip := fleetAt(t, 2, 0, 10, testScale)
	_, body := get(t, ip.Handler(), "/metrics", nil)
	for _, want := range []string{
		`store_arena_slabs_live{node="shard-0"}`,
		`store_arena_slabs_live{node="shard-1"}`,
		`gateway_requests_total{route="metrics",node="gateway"} 1`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("merged /metrics lacks %s", want)
		}
	}
}
