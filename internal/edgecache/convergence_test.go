package edgecache

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// originStore builds a deterministic small store. Every call with the same
// seed produces a byte-identical catalog, so a direct crawl of one
// instance is the ground truth for an edge-fronted crawl of another.
func originStore(t *testing.T) (*storeserver.Server, *httptest.Server) {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := storeserver.New(m, storeserver.Config{PageSize: 40})
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetComments(cs)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// edgeFor fronts an origin URL with an edge server and returns the edge's
// client-facing base URL.
func edgeFor(t *testing.T, originURL string, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Origin = originURL
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// canonicalDB renders a crawl database deterministically: apps in ID order
// and comments sorted, so worker interleaving cannot leak into the
// byte-identity check.
func canonicalDB(t *testing.T, d *db.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, a := range d.Apps() {
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
	}
	cs := d.Comments()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].App != cs[j].App {
			return cs[i].App < cs[j].App
		}
		if cs[i].User != cs[j].User {
			return cs[i].User < cs[j].User
		}
		return cs[i].UnixTime < cs[j].UnixTime
	})
	for _, c := range cs {
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// crawlTo runs one crawl session against baseURL into a fresh database.
func crawlTo(t *testing.T, baseURL string) []byte {
	t.Helper()
	cfg := crawler.DefaultConfig(baseURL)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	d := db.New()
	c, err := crawler.New(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.CrawlDay(ctx); err != nil {
		t.Fatalf("crawl failed: %v", err)
	}
	return canonicalDB(t, d)
}

// TestEdgeCrawlByteIdentical is the tier's acceptance test: a crawl routed
// through the edge is byte-identical to a direct crawl, before and after a
// day-roll, and a repeat same-day crawl is served largely from the edge's
// store without losing identity. The origin runs its conservative
// max-age=0 default, so every edge serve is either a fresh fill or an
// ETag-revalidated copy — never silently outdated data.
func TestEdgeCrawlByteIdentical(t *testing.T) {
	direct, directTS := originStore(t)
	origin, originTS := originStore(t)
	edge, edgeURL := edgeFor(t, originTS.URL, Config{})

	want := crawlTo(t, directTS.URL)
	got := crawlTo(t, edgeURL)
	if !bytes.Equal(got, want) {
		t.Fatalf("edge crawl diverged from direct crawl (%d vs %d canonical bytes)", len(got), len(want))
	}

	// Second pass, same day: identical again, and mostly answered by the
	// edge's own store (revalidations and fresh hits, not full misses).
	before := edge.Stats()
	got2 := crawlTo(t, edgeURL)
	if !bytes.Equal(got2, want) {
		t.Fatal("second-pass edge crawl diverged")
	}
	after := edge.Stats()
	reqs := after.Requests - before.Requests
	served := (after.Hits + after.Revalidated + after.StaleServed) -
		(before.Hits + before.Revalidated + before.StaleServed)
	if reqs == 0 || 100*served/reqs < 60 {
		t.Fatalf("second pass served only %d of %d requests from the edge store", served, reqs)
	}
	if fetched, srv := after.OriginBytes-before.OriginBytes, after.ServedBytes-before.ServedBytes; fetched >= srv {
		t.Fatalf("second pass saved no origin bytes (%d fetched vs %d served)", fetched, srv)
	}

	// Day-roll: both stores advance, the edge revalidates its way to the
	// new snapshot, and identity must hold again.
	if err := direct.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if err := origin.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	want = crawlTo(t, directTS.URL)
	got = crawlTo(t, edgeURL)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-roll edge crawl diverged from direct crawl (%d vs %d canonical bytes)", len(got), len(want))
	}
}

// TestEdgeCrawlConvergesUnderChaos points a faultinject scenario at the
// edge->origin leg: the edge's resilient client (plus stale serving, which
// within one snapshot is still byte-correct — same ETag, same body) must
// absorb the faults and keep the crawl byte-identical to a fault-free
// direct crawl.
func TestEdgeCrawlConvergesUnderChaos(t *testing.T) {
	for _, name := range []string{"error-burst", "corruption"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, directTS := originStore(t)
			want := crawlTo(t, directTS.URL)

			sc, err := faultinject.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(sc.Scale(0.2), 0xEDCE, nil)
			_, originTS := originStore(t)
			edge, edgeURL := edgeFor(t, originTS.URL, Config{
				OriginTransport: inj.RoundTripper(http.DefaultTransport),
				OriginRetries:   8,
				HedgeAfter:      60 * time.Millisecond,
			})

			got := crawlTo(t, edgeURL)
			if !bytes.Equal(got, want) {
				t.Fatalf("edge crawl under %q diverged from fault-free direct crawl (%d vs %d canonical bytes)",
					name, len(got), len(want))
			}
			if inj.InjectedTotal() == 0 {
				t.Fatalf("scenario %q injected nothing; the edge->origin leg was never exercised", name)
			}
			st := edge.Stats()
			t.Logf("%s: %d faults injected; edge stats: %d reqs, %d misses, %d revalidated, %d stale, %d errors",
				name, inj.InjectedTotal(), st.Requests, st.Misses, st.Revalidated, st.StaleServed, st.Errors)
		})
	}
}

// TestEdgeConcurrentReadersAcrossDayRolls hammers the edge from many
// goroutines while the origin rolls through every remaining day. Run under
// -race this checks the locking discipline; the assertion checks snapshot
// coherence — the X-Store-Day header and the day embedded in the stats
// body must come from the same snapshot, no matter how requests interleave
// with rolls and revalidations.
func TestEdgeConcurrentReadersAcrossDayRolls(t *testing.T) {
	origin, originTS := originStore(t)
	_, edgeURL := edgeFor(t, originTS.URL, Config{})

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				switch i % 3 {
				case 0:
					url = edgeURL + "/api/v1/stats"
				case 1:
					url = edgeURL + "/api/v1/apps/" + strconv.Itoa((g*31+i)%40)
				default:
					url = edgeURL + "/api/v1/apps?cursor="
				}
				res, err := client.Get(url)
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(res.Body)
				res.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if res.StatusCode != http.StatusOK {
					continue // 404 past catalog end is fine; 5xx would fail below
				}
				if i%3 == 0 {
					var doc struct {
						Day int `json:"day"`
					}
					if err := json.Unmarshal(body, &doc); err != nil {
						errCh <- err
						return
					}
					if hd := res.Header.Get("X-Store-Day"); hd != strconv.Itoa(doc.Day) {
						errCh <- &incoherent{header: hd, body: doc.Day}
						return
					}
				}
			}
		}(g)
	}

	// Roll through every remaining snapshot while the readers run.
	for {
		time.Sleep(10 * time.Millisecond)
		if err := origin.AdvanceDay(); err != nil {
			break // out of days
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type incoherent struct {
	header string
	body   int
}

func (e *incoherent) Error() string {
	return "snapshot incoherence: X-Store-Day " + e.header + " vs body day " + strconv.Itoa(e.body)
}

// TestEdgeAnswersMalformedPathsLikeTheOrigin sends the malformed-path rows
// of fleet's odd-request table, plus a "//" prefix and a ".." segment,
// to a store directly and through the edge and requires the same status
// and body: the edge forwards the path it was given, it does not clean or
// redirect it. /metrics stays the edge's own.
func TestEdgeAnswersMalformedPathsLikeTheOrigin(t *testing.T) {
	_, origin := originStore(t)
	_, edgeURL := edgeFor(t, origin.URL, Config{CapacityBytes: 1 << 20})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for _, path := range []string{
		"/api/v1/apps//comments",
		"/api/v1/apps/3/",
		"//api/v1/stats",
		"/api/v1/apps/3/../4",
		"/api/v1/apps/",
		"/api/v1/apps/xyz",
	} {
		wantCode, wantBody := get(origin.URL + path)
		code, body := get(edgeURL + path)
		if code != wantCode || body != wantBody {
			t.Errorf("GET %s: edge answered %d %q, origin %d %q", path, code, body, wantCode, wantBody)
		}
	}
	if code, body := get(edgeURL + "/metrics"); code != http.StatusOK || !bytes.Contains([]byte(body), []byte("edge_requests_total")) {
		t.Errorf("GET /metrics: %d, want the edge's own registry:\n%s", code, body)
	}
}

// TestEdgeAnswersConditionalsLikeTheOrigin holds the edge to the origin's
// reading of If-None-Match (apiwire.ETagMatch: exact, weak, list,
// wildcard), on a response the edge serves from cache and on one it only
// relays.
func TestEdgeAnswersConditionalsLikeTheOrigin(t *testing.T) {
	m, err := marketsim.New(marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05)), 1)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(storeserver.New(m, storeserver.Config{FreshFor: time.Minute}).Handler())
	t.Cleanup(origin.Close)
	_, edgeURL := edgeFor(t, origin.URL, Config{CapacityBytes: 1 << 20})

	for path, verdict := range map[string]string{
		"/api/v1/apps/3":     "hit",
		"/api/v1/apps/3/apk": "pass",
	} {
		identity := map[string]string{"Accept-Encoding": "identity"}
		_, _, hdr := edgeGet(t, edgeURL+path, identity) // fills the cacheable one
		etag := hdr.Get("ETag")
		if etag == "" {
			t.Fatalf("GET %s: no ETag", path)
		}
		for _, inm := range []string{etag, "W/" + etag, `"x", ` + etag, "*", `"x"`} {
			identity["If-None-Match"] = inm
			want, _, _ := edgeGet(t, origin.URL+path, identity)
			got, _, hdr := edgeGet(t, edgeURL+path, identity)
			if got != want || hdr.Get("X-Edge-Cache") != verdict {
				t.Errorf("GET %s If-None-Match: %s: edge answered %d (%s), origin %d",
					path, inm, got, hdr.Get("X-Edge-Cache"), want)
			}
		}
	}
}
