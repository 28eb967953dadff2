package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"planetapps/internal/edgecache"
	"planetapps/internal/storeserver"
)

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal: %v (%.120s)", err, b)
	}
}

// TestEdgeCacheOverGateway stacks the serving tiers the ROADMAP describes:
// edge cache -> consistent-hash gateway -> sharded store fleet. The edge
// must serve the exact bytes a single unsharded node would — on misses
// (filled through the gateway's scatter/merge) and again on hits (served
// from cache) — because the gateway preserves the origin's ETag and
// Cache-Control discipline that the edge's correctness rests on.
func TestEdgeCacheOverGateway(t *testing.T) {
	single := singleNode(t, 7)
	ip := newFleet(t, 4, 7)

	edge, err := edgecache.New(edgecache.Config{
		Origin:          "http://gateway",
		OriginTransport: HandlerTransport{Handler: ip.Gateway},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, statsBody := get(t, single.Handler(), "/api/v1/stats", nil)
	var paths []string
	paths = append(paths, "/api/v1/stats", "/api/v1/apps")
	var stats struct {
		Apps int `json:"apps"`
	}
	mustUnmarshal(t, statsBody, &stats)
	for id := 0; id < stats.Apps; id++ {
		paths = append(paths, "/api/v1/apps/"+strconv.Itoa(id))
	}

	// Identity headers keep the comparison on the canonical representation
	// (negotiation is covered by the storeserver and edgecache suites).
	hdr := http.Header{"Accept-Encoding": []string{"identity"}}
	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			wantResp, wantBody := get(t, single.Handler(), p, hdr)
			gotResp, gotBody := get(t, edge.Handler(), p, hdr)
			if gotResp.StatusCode != wantResp.StatusCode {
				t.Fatalf("pass %d %s: status %d want %d", pass, p, gotResp.StatusCode, wantResp.StatusCode)
			}
			if p == "/api/v1/apps" {
				// Listing bodies match row-for-row; next_cursor is opaque
				// and topology-specific, so compare the rows.
				var w, g cursorPage
				mustUnmarshal(t, wantBody, &w)
				mustUnmarshal(t, gotBody, &g)
				if w.Total != g.Total || len(w.Apps) != len(g.Apps) {
					t.Fatalf("pass %d %s: page shape diverged", pass, p)
				}
				for i := range w.Apps {
					if !bytes.Equal(w.Apps[i], g.Apps[i]) {
						t.Fatalf("pass %d %s: row %d diverged", pass, p, i)
					}
				}
				continue
			}
			if !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("pass %d %s: body through edge+gateway diverged from single node (%d vs %d bytes)",
					pass, p, len(gotBody), len(wantBody))
			}
			if ge, we := gotResp.Header.Get("Etag"), wantResp.Header.Get("Etag"); ge != we {
				t.Fatalf("pass %d %s: Etag %q want %q", pass, p, ge, we)
			}
		}
	}
	st := edge.Stats()
	if st.Hits+st.Revalidated == 0 {
		t.Fatalf("second pass never used the cache: %+v", st)
	}

	// Roll both worlds one day: the fleet via the two-phase epoch swap.
	// The edge's cached entries now carry stale ETags; revalidation
	// against the gateway must converge every path to the new day's bytes.
	if err := single.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if err := ip.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/api/v1/stats", "/api/v1/apps/0"} {
		_, wantBody := get(t, single.Handler(), p, hdr)
		_, gotBody := get(t, edge.Handler(), p, hdr)
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("after day-roll %s: edge served stale or diverged bytes", p)
		}
	}
}

// TestEdgeRelaysWrites: the edge relays every method but GET and HEAD to
// its origin uncached. A write posted through edge -> gateway is acked,
// its replay under the same Idempotency-Key is deduped — through the edge
// and at the gateway alike — and it is visible through the edge after a
// roll. A wrong method gets the gateway's own 405 and Allow.
func TestEdgeRelaysWrites(t *testing.T) {
	ip := newFleet(t, 4, 20)
	gateway := ip.Gateway
	edge, err := edgecache.New(edgecache.Config{
		Origin:          "http://gateway",
		OriginTransport: HandlerTransport{Handler: gateway},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := edge.Handler()
	downloads := func() int64 {
		var app storeserver.AppJSON
		_, body := get(t, h, "/api/v1/apps/3", nil)
		mustUnmarshal(t, body, &app)
		return app.Downloads
	}
	before := downloads()

	hdr := http.Header{"Content-Type": {"application/json"}, "Idempotency-Key": {"edge-write-1"}}
	const path, body = "/api/v1/apps/3/download", `{"user":77}`
	fetched := edge.Stats().OriginRequests
	for i, tier := range []http.Handler{h, h, gateway} {
		r := exchange(t, tier, "POST", path, hdr, body)
		var ack storeserver.WriteAckJSON
		mustUnmarshal(t, r.body, &ack)
		if r.status != http.StatusOK || !ack.Accepted || ack.Deduped != (i > 0) {
			t.Fatalf("POST %d: %d %s, want an ack (deduped: %v)", i, r.status, r.body, i > 0)
		}
	}
	// Each relayed write is an origin request: no origin offload from writes.
	if n := edge.Stats().OriginRequests - fetched; n != 2 {
		t.Fatalf("two writes relayed, %d origin requests counted", n)
	}
	if got := downloads(); got != before {
		t.Fatalf("write visible before the roll: downloads %d -> %d", before, got)
	}
	if err := ip.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	// The simulation adds organic downloads of its own: at least ours.
	if got := downloads(); got < before+1 {
		t.Fatalf("write not visible after the roll: downloads %d -> %d", before, got)
	}

	for _, rq := range []struct{ method, path string }{
		{"DELETE", "/api/v1/apps/3"}, {"PUT", path}, {"POST", "/api/v1/stats"},
	} {
		got, want := exchange(t, h, rq.method, rq.path, nil, ""), exchange(t, gateway, rq.method, rq.path, nil, "")
		if got.status != http.StatusMethodNotAllowed || got.status != want.status ||
			got.header.Get("Allow") != want.header.Get("Allow") || !bytes.Equal(got.body, want.body) {
			t.Fatalf("%s %s through the edge: %d Allow %q %s; the gateway answers %d Allow %q %s", rq.method, rq.path,
				got.status, got.header.Get("Allow"), got.body, want.status, want.header.Get("Allow"), want.body)
		}
	}
}
