package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"planetapps/internal/model"
	"planetapps/internal/storeserver"
)

// TestFunnelGoldenVectors pins funnelFor bit for bit. cmd/bench/ops.go
// carries a frozen copy of the same function at mix 0.20 (that module
// cannot import this package), and its mixed-rw-roll workload claims to
// select events the way cmd/loadtest -write-mix does: these vectors were
// produced by both copies, so neither can drift without this test or
// its twin's share check noticing.
func TestFunnelGoldenVectors(t *testing.T) {
	for _, v := range []struct {
		seed      uint64
		user, app int32
		want      funnel
	}{
		{1, 0, 0, funnel{}},
		{1, 0, 1, funnel{true, true, true, 1, 1}}, // the all-zero hash
		{1, 0, 6, funnel{true, true, false, 5, 2}},
		{1, 0, 11, funnel{true, false, false, 2, 2}},
		{1, 19, 230, funnel{true, true, false, 3, 5}},
		{1, -1, -1, funnel{}},
		{2, 0, 1, funnel{true, true, true, 2, 2}},
		{2, 0, 12, funnel{true, false, false, 4, 4}},
		{42, 1, 20, funnel{true, true, true, 4, 3}},
		{42, 2, 18, funnel{true, true, false, 5, 5}},
		{42, 199999, 4999, funnel{}},
	} {
		if got := funnelFor(v.seed, 0.20, model.Event{User: v.user, App: v.app}); got != v.want {
			t.Errorf("funnelFor(%d, 0.20, {%d %d}) = %+v, want %+v", v.seed, v.user, v.app, got, v.want)
		}
	}
}

// TestFunnelShares: mix is the share of events selected; a quarter of the
// selected also rate and an eighth also comment (every commenter rates).
func TestFunnelShares(t *testing.T) {
	const mix = 0.3
	var n, writers, raters, commenters int
	for user := int32(0); user < 400; user++ {
		for app := int32(0); app < 500; app++ {
			ev := model.Event{User: user, App: app}
			n++
			f := funnelFor(7, mix, ev)
			if !f.download {
				if f != (funnel{}) {
					t.Fatalf("%v: unselected event carries decisions: %+v", ev, f)
				}
				continue
			}
			writers++
			if f.rateStars < 1 || f.rateStars > 5 || f.commentStars < 1 || f.commentStars > 5 {
				t.Fatalf("%v: stars out of 1..5: %+v", ev, f)
			}
			if f.rate {
				raters++
			}
			if f.comment {
				commenters++
				if !f.rate {
					t.Fatalf("%v: comments without rating: %+v", ev, f)
				}
			}
			if funnelFor(7, 0, ev).download || !funnelFor(7, 1, ev).download {
				t.Fatalf("%v: mix 0 must select nothing and mix 1 everything", ev)
			}
		}
	}
	near := func(name string, got, of int, want float64) {
		t.Helper()
		if share := float64(got) / float64(of); share < want-0.01 || share > want+0.01 {
			t.Errorf("%s share %.4f, want %.3f ± 0.01", name, share, want)
		}
	}
	near("selected", writers, n, mix)
	near("rate", raters, writers, 0.25)
	near("comment", commenters, writers, 0.125)
}

// checkWriteAccounting is checkAccounting's write-side twin: every POST
// of the measured window lands in exactly one outcome.
func checkWriteAccounting(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Writes) != len(writeEndpoints) {
		t.Fatalf("report has %d write rows, want %d", len(rep.Writes), len(writeEndpoints))
	}
	var accepted, deduped int64
	for _, w := range rep.Writes {
		if got := w.Accepted + w.Deduped + w.Duplicate + w.Backpressure429 + w.Rejected + w.Errors; got != w.Posts {
			t.Fatalf("%s: outcomes add up to %d, posts %d: %+v", w.Endpoint, got, w.Posts, w)
		}
		accepted += w.Accepted
		deduped += w.Deduped
	}
	if accepted != rep.WriteAccepted || deduped != rep.WriteDeduped {
		t.Fatalf("write rows total %d accepted, %d deduped; report says %d, %d",
			accepted, deduped, rep.WriteAccepted, rep.WriteDeduped)
	}
}

// clusteringEvents draws the first n events of the paper's APP-CLUSTERING
// stream. It is fetch-at-most-once per user, so every (user, app) pair is
// distinct and no write derived from it collides on a natural key.
func clusteringEvents(t *testing.T, apps, n int) []model.Event {
	t.Helper()
	sim, err := model.NewSimulator(model.AppClustering, model.Config{
		Apps: apps, Users: 600, DownloadsPerUser: 6,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]model.Event, 0, n)
	sim.Stream(3, func(e model.Event) bool {
		evs = append(evs, e)
		return len(evs) < n
	})
	if len(evs) != n {
		t.Fatalf("stream ended after %d events, want %d", len(evs), n)
	}
	return evs
}

// fetchDoc GETs the identity representation of one document.
func fetchDoc(t *testing.T, url string) (body, etag string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("Etag")
}

// storeApps reads the catalog size off /stats.
func storeApps(t *testing.T, baseURL string) int {
	t.Helper()
	body, _ := fetchDoc(t, baseURL+"/api/v1/stats")
	var st storeserver.StatsJSON
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Apps == 0 {
		t.Fatalf("stats %q: %v", body, err)
	}
	return st.Apps
}

// runFunnel replays events through a fresh Generator with half of them
// entering the write funnel and requires a clean, fully accounted run.
func runFunnel(t *testing.T, baseURL string, events []model.Event, shape Config) *Report {
	t.Helper()
	shape.BaseURL, shape.WriteMix, shape.Seed = baseURL, 0.5, 11
	g, err := New(shape)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	checkWriteAccounting(t, rep)
	if rep.Events != int64(len(events)) || rep.Dropped != 0 || rep.Errors != 0 || rep.OK != rep.Requests {
		t.Fatalf("%s run incomplete: %d/%d events, %d dropped, %d errors, %d/%d ok",
			rep.Mode, rep.Events, len(events), rep.Dropped, rep.Errors, rep.OK, rep.Requests)
	}
	for _, w := range rep.Writes {
		if w.Accepted+w.Deduped != w.Posts {
			t.Fatalf("%s run: %s writes refused: %+v", rep.Mode, w.Endpoint, w)
		}
	}
	return rep
}

// TestWriteFunnelInvariance is the engine's determinism contract: what
// gets written is a pure function of (seed, user, app) and the store's
// day-roll merges WAL deltas order-independently, so one event list and
// seed leave a byte-identical next-day snapshot whether one virtual user
// replays it, eight do, or an open-loop schedule fans it out.
func TestWriteFunnelInvariance(t *testing.T) {
	type run struct {
		name  string
		shape Config
		url   string
		rep   *Report
	}
	runs := []*run{
		{name: "closed/1vu", shape: Config{Mode: ClosedLoop, Users: 1}},
		{name: "closed/8vu", shape: Config{Mode: ClosedLoop, Users: 8}},
		{name: "open/5krps", shape: Config{Mode: OpenLoop, Stages: []Stage{{RPS: 5000, Duration: time.Minute}}}},
	}
	var events []model.Event
	for _, r := range runs {
		srv, ts := testStore(t, storeserver.Config{PageSize: 50})
		if events == nil {
			events = clusteringEvents(t, storeApps(t, ts.URL), 1800)
		}
		r.url = ts.URL
		r.rep = runFunnel(t, ts.URL, events, r.shape)
		if err := srv.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		w := srv.WALStats()
		if w.Accepted != r.rep.WriteAccepted || w.Merged != w.Accepted || w.Pending != 0 {
			t.Fatalf("%s: client saw %d accepted, wal %+v", r.name, r.rep.WriteAccepted, w)
		}
	}
	ref := runs[0]
	if ref.rep.WriteAccepted == 0 || ref.rep.WriteDeduped != 0 {
		t.Fatalf("%s: %d accepted, %d deduped", ref.name, ref.rep.WriteAccepted, ref.rep.WriteDeduped)
	}
	for i, w := range ref.rep.Writes {
		if w.Posts == 0 {
			t.Fatalf("the funnel never reached %s", w.Endpoint)
		}
		for _, r := range runs[1:] {
			if got := r.rep.Writes[i]; got.Posts != w.Posts || got.Accepted != w.Accepted {
				t.Fatalf("%s: %s %d posts / %d accepted, %s had %d / %d",
					r.name, w.Endpoint, got.Posts, got.Accepted, ref.name, w.Posts, w.Accepted)
			}
		}
	}

	// Every surface the writes touch, byte for byte and tag for tag.
	same := func(path string) string {
		t.Helper()
		body, etag := fetchDoc(t, ref.url+path)
		for _, r := range runs[1:] {
			if b, e := fetchDoc(t, r.url+path); b != body || e != etag {
				t.Fatalf("%s differs between %s and %s:\n %s %s\n %s %s", path, ref.name, r.name, etag, body, e, b)
			}
		}
		return body
	}
	same("/api/v1/stats")
	pages := 0
	for cursor := ""; ; pages++ {
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal([]byte(same("/api/v1/apps?cursor="+cursor)), &page); err != nil {
			t.Fatal(err)
		}
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}
	apps := storeApps(t, ref.url)
	if pages+1 != (apps+49)/50 {
		t.Fatalf("cursor walk covered %d pages of a %d-app catalog", pages+1, apps)
	}
	for id := 0; id < apps; id++ {
		same("/api/v1/apps/" + strconv.Itoa(id))
		same("/api/v1/apps/" + strconv.Itoa(id) + "/comments")
	}
}

// TestWriteReplayDedups: every write carries an Idempotency-Key derived
// from (user, app, endpoint), so replaying the same events against the
// same store acknowledges each write without logging anything twice —
// the same day, and across one roll (keys age one generation, not out).
func TestWriteReplayDedups(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	events := clusteringEvents(t, storeApps(t, ts.URL), 600)
	shape := Config{Mode: ClosedLoop, Users: 4}

	first := runFunnel(t, ts.URL, events, shape)
	if first.WriteAccepted == 0 || first.WriteDeduped != 0 {
		t.Fatalf("first run: %d accepted, %d deduped", first.WriteAccepted, first.WriteDeduped)
	}
	logged := srv.WALStats().Accepted
	if logged != first.WriteAccepted {
		t.Fatalf("wal logged %d records, client saw %d accepted", logged, first.WriteAccepted)
	}
	replay := func(when string) {
		t.Helper()
		rep := runFunnel(t, ts.URL, events, shape)
		if rep.WriteAccepted != 0 || rep.WriteDeduped != first.WriteAccepted {
			t.Fatalf("%s replay: %d accepted, %d deduped, want 0 and %d",
				when, rep.WriteAccepted, rep.WriteDeduped, first.WriteAccepted)
		}
		if got := srv.WALStats().Accepted; got != logged {
			t.Fatalf("%s replay logged new records: %d -> %d", when, logged, got)
		}
	}
	replay("same-day")
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	replay("cross-roll")
}

// closeSpy is a Source that records being closed.
type closeSpy struct {
	Source
	closed bool
}

func (c *closeSpy) Close() error { c.closed = true; return nil }

// TestRunClosesSource: a run that MaxEvents ends long before the workload
// does must not leave the source's resources behind. For a model source
// that is the generator goroutine: Close returns only once it has exited,
// which — the stream being far from done — means the Stream callback was
// told to stop; the closed channel then reads as EOF.
func TestRunClosesSource(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	sim, err := model.NewSimulator(model.ZipfAtMostOnce, model.Config{
		Apps: storeApps(t, ts.URL), Users: 20000, DownloadsPerUser: 8, ZipfGlobal: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(src Source) {
		t.Helper()
		g, err := New(Config{BaseURL: ts.URL, Mode: ClosedLoop, Users: 2, MaxEvents: 50})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Events != 50 {
			t.Fatalf("replayed %d events, want 50", rep.Events)
		}
	}
	src := NewModelSource(context.Background(), sim, 1)
	run(src)
	if ev, err := src.Next(); err != io.EOF {
		t.Fatalf("model source after Run: event %v, err %v; want io.EOF from a stopped generator", ev, err)
	}
	spy := &closeSpy{Source: newSliceSource(syntheticEvents(1000, 50, 40))}
	run(spy)
	if !spy.closed {
		t.Fatal("Run returned without closing a closable source")
	}
}
