package loadgen

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
	"planetapps/internal/model"
	"planetapps/internal/storeserver"
	"planetapps/internal/trace"
)

// testStore serves a small slideme market; rate limiting per cfg.
func testStore(t *testing.T, cfg storeserver.Config) (*storeserver.Server, *httptest.Server) {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	mcfg.Days = 5
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := storeserver.New(m, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// syntheticEvents builds n events cycling over users and apps.
func syntheticEvents(n, users, apps int) []model.Event {
	evs := make([]model.Event, n)
	for i := range evs {
		evs[i] = model.Event{User: int32(i % users), App: int32(i % apps)}
	}
	return evs
}

// sliceSource serves a fixed event list.
type sliceSource struct {
	events []model.Event
	i      int
}

// newSliceSource replays an in-memory event slice.
func newSliceSource(events []model.Event) Source { return &sliceSource{events: events} }

func (s *sliceSource) Next() (model.Event, error) {
	if s.i >= len(s.events) {
		return model.Event{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

func checkAccounting(t *testing.T, rep *Report) {
	t.Helper()
	if got := rep.OK + rep.RateLimited + rep.Errors + rep.OtherStatus; got != rep.Requests {
		t.Fatalf("accounting mismatch: ok %d + 429 %d + err %d + other %d != requests %d",
			rep.OK, rep.RateLimited, rep.Errors, rep.OtherStatus, rep.Requests)
	}
	var classTotal int64
	for _, c := range rep.Classes {
		classTotal += c.Requests
	}
	if classTotal != rep.Requests {
		t.Fatalf("class totals %d != requests %d", classTotal, rep.Requests)
	}
}

func TestClosedLoop(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	const n = 400
	g, err := New(Config{
		BaseURL:  ts.URL,
		Mode:     ClosedLoop,
		Users:    8,
		APKEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(n, 50, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != n {
		t.Fatalf("events = %d, want %d", rep.Events, n)
	}
	// Every event issues a detail request; every 10th (per VU) adds an APK.
	if rep.Requests < n {
		t.Fatalf("requests = %d, want >= %d", rep.Requests, n)
	}
	if rep.Errors != 0 || rep.RateLimited != 0 {
		t.Fatalf("unexpected failures: %+v", rep)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("ok = %d, requests = %d", rep.OK, rep.Requests)
	}
	checkAccounting(t, rep)
	det := rep.Classes[0]
	if det.Class != ClassDetail || det.Requests != n {
		t.Fatalf("detail class = %+v", det)
	}
	if det.LatencyMS.P50 <= 0 || det.LatencyMS.P99 < det.LatencyMS.P50 {
		t.Fatalf("implausible latency summary: %+v", det.LatencyMS)
	}
	if det.LatencyMS.Max < det.LatencyMS.P999 {
		t.Fatalf("max < p999: %+v", det.LatencyMS)
	}
	// Server-side counters must agree with the client's view.
	if got := srv.RequestsServed(); got != rep.Requests {
		t.Fatalf("server saw %d requests, client sent %d", got, rep.Requests)
	}
}

func TestOpenLoopStages(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages: []Stage{
			{RPS: 400, Duration: 250 * time.Millisecond},
			{RPS: 800, Duration: 250 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(100000, 500, 40)))
	if err != nil {
		t.Fatal(err)
	}
	// Schedule: 400*0.25 + 800*0.25 = 300 arrivals; allow scheduler slop.
	if rep.Requests < 200 || rep.Requests > 320 {
		t.Fatalf("requests = %d, want ~300", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %f", rep.ThroughputRPS)
	}
	checkAccounting(t, rep)
	if got := srv.RequestsServed(); got != rep.Requests+rep.WarmupRequests {
		t.Fatalf("server saw %d, client recorded %d", got, rep.Requests)
	}
}

// stallingSource holds the pacer once, inside the Next call for event at.
type stallingSource struct {
	Source
	at    int
	stall time.Duration
	n     int
}

func (s *stallingSource) Next() (model.Event, error) {
	if s.n == s.at {
		time.Sleep(s.stall)
	}
	s.n++
	return s.Source.Next()
}

// TestOpenLoopChargesPacerLag: a source that stalls the pacer makes the
// arrivals it owes late, and the open loop must count that lateness
// against latency rather than timing the catch-up burst from its launch.
func TestOpenLoopChargesPacerLag(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages:  []Stage{{RPS: 1000, Duration: 500 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const stall = 150 * time.Millisecond
	src := &stallingSource{Source: newSliceSource(syntheticEvents(100000, 500, 40)), at: 100, stall: stall}
	rep, err := g.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if det := rep.Classes[0]; det.LatencyMS.Max < float64(stall/time.Millisecond) {
		t.Fatalf("detail max %.1f ms after a %v pacer stall: the lag went uncharged", det.LatencyMS.Max, stall)
	}
}

func TestClosedLoopRateLimited(t *testing.T) {
	// One shared virtual client (user 0) against a tight limiter: the bulk
	// of the burst must come back 429 and be accounted as such.
	srv, ts := testStore(t, storeserver.Config{PageSize: 50, RatePerSec: 10, Burst: 5})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    ClosedLoop,
		Users:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(200, 1, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RateLimited == 0 {
		t.Fatalf("no 429s under a 10 rps / burst 5 limit: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("every request limited: %+v", rep)
	}
	checkAccounting(t, rep)
	if got := srv.RateLimited(); got != rep.RateLimited {
		t.Fatalf("server counted %d limited, client %d", got, rep.RateLimited)
	}
}

func TestWarmupExclusion(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages:  []Stage{{RPS: 200, Duration: 400 * time.Millisecond}},
		Warmup:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(100000, 100, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmupRequests == 0 {
		t.Fatal("warmup window recorded no requests")
	}
	if rep.Requests == 0 {
		t.Fatal("measured window recorded no requests")
	}
	// ~80 arrivals total, ~40 in warmup.
	if rep.Requests+rep.WarmupRequests < 60 {
		t.Fatalf("total arrivals too low: %d measured + %d warmup",
			rep.Requests, rep.WarmupRequests)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50, Latency: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    ClosedLoop,
		Users:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := g.Run(ctx, newSliceSource(syntheticEvents(1_000_000, 100, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if rep.Events >= 1_000_000 {
		t.Fatal("run consumed the whole source despite cancellation")
	}
	checkAccounting(t, rep)
}

func TestModelAndTraceSources(t *testing.T) {
	sim, err := model.NewSimulator(model.Zipf, model.Config{
		Apps: 40, Users: 100, DownloadsPerUser: 3, ZipfGlobal: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Live model source.
	ctx := context.Background()
	src := NewModelSource(ctx, sim, 7)
	var live int64
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		live++
	}
	if live == 0 {
		t.Fatal("model source produced no events")
	}
	// The same workload through a recorded trace must match event counts.
	var buf writerBuffer
	n, err := trace.Record(&buf, sim, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != live {
		t.Fatalf("trace recorded %d events, live source yielded %d", n, live)
	}
	tr, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTraceSource(tr)
	var replayed int64
	for {
		_, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed++
	}
	if replayed != n {
		t.Fatalf("trace source yielded %d events, want %d", replayed, n)
	}
}

// writerBuffer is a minimal in-memory io.ReadWriter (bytes.Buffer without
// the import dance in table tests).
type writerBuffer struct {
	b []byte
	r int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.r >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.r:])
	w.r += n
	return n, nil
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{BaseURL: "http://x", Mode: OpenLoop},
		{BaseURL: "http://x", Mode: OpenLoop, Stages: []Stage{{RPS: 0, Duration: time.Second}}},
		{BaseURL: "http://x", Mode: ClosedLoop},
		{BaseURL: "http://x", Mode: Mode(9)},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if _, err := ParseMode("open"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMode("weird"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}
