package storeserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"planetapps/internal/arena"
	"planetapps/internal/wal"
)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/apps/0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/v1/apps?page=badnum")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"store_requests_total 4",
		`store_route_requests_total{route="detail"} 3`,
		`store_responses_total{route="detail",code="200"} 3`,
		`store_responses_total{route="list",code="400"} 1`,
		`store_request_seconds{route="detail",quantile="0.5"} `,
		"store_rate_limited_total 0",
		"store_respcache_carried_total ",
		"store_respcache_reencoded_total ",
		"store_snapshot_build_seconds_count 1",
		"store_arena_live_bytes ",
		fmt.Sprintf("store_arena_pinned_bytes %d", arena.FirstSlabSize), // one first slab holds the document
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsCountRateLimited(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 50, RatePerSec: 1, Burst: 1})
	var got429 int64
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429++
		}
	}
	if got429 == 0 {
		t.Fatal("no request was rate limited")
	}
	if s.RateLimited() != got429 {
		t.Fatalf("RateLimited() = %d, observed %d", s.RateLimited(), got429)
	}
	// /metrics itself must not be rate limited.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d under rate limiting", resp.StatusCode)
	}
}

func TestLimiterEvictsIdleBuckets(t *testing.T) {
	lim := newLimiter(100, 10, 50*time.Millisecond)
	base := time.Now()
	for i := 0; i < 200; i++ {
		lim.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256), base)
	}
	if got := lim.size(); got != 200 {
		t.Fatalf("tracked %d buckets, want 200", got)
	}
	// All 200 clients idle past the TTL; one active client keeps touching
	// every shard's sweep clock via its own requests.
	later := base.Add(120 * time.Millisecond)
	for i := 0; i < 200; i++ {
		lim.allow(fmt.Sprintf("10.9.%d.%d", i/256, i%256), later)
	}
	if got := lim.size(); got > 210 {
		t.Fatalf("idle buckets not evicted: %d tracked", got)
	}
}

func TestLimiterShardedConcurrent(t *testing.T) {
	lim := newLimiter(1e9, 1<<30, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("client-%d", g)
			now := time.Now()
			for i := 0; i < 2000; i++ {
				if !lim.allow(key, now) {
					t.Errorf("client %d throttled under effectively unlimited rate", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := lim.size(); got != 16 {
		t.Fatalf("tracked %d buckets, want 16", got)
	}
}

// TestLimiterClockSkewDoesNotDrain pins the backwards-time fix: requests
// sample time.Now before taking the shard lock, so under concurrency a
// bucket can see timestamps out of order. A negative elapsed must be a
// no-op credit — at high rates it used to *subtract* millions of tokens
// and 429 an effectively unlimited client.
func TestLimiterClockSkewDoesNotDrain(t *testing.T) {
	lim := newLimiter(1e12, 1<<30, time.Minute)
	now := time.Now()
	if !lim.allow("skewed", now) {
		t.Fatal("first request throttled")
	}
	for i := 0; i < 1000; i++ {
		// Each request arrives with a timestamp slightly older than the
		// bucket's last refill.
		if !lim.allow("skewed", now.Add(-time.Duration(i+1)*time.Microsecond)) {
			t.Fatalf("request %d throttled: negative elapsed drained the bucket", i)
		}
	}
}

func TestLimiterStillLimitsPerClient(t *testing.T) {
	lim := newLimiter(1, 3, time.Minute)
	now := time.Now()
	allowed := 0
	for i := 0; i < 10; i++ {
		if lim.allow("same-client", now) {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("burst of 3 allowed %d requests", allowed)
	}
	if !lim.allow("other-client", now) {
		t.Fatal("distinct client throttled by first client's bucket")
	}
	// Tokens refill with time.
	if !lim.allow("same-client", now.Add(2*time.Second)) {
		t.Fatal("bucket did not refill after 2s at 1 rps")
	}
}

// TestLimiterBurstFloor: a bucket that can never hold one token would
// refuse every request forever. Calls spaced 50 ms apart need 20 req/s; at
// 100 req/s every one of them has a token waiting whatever the configured
// depth — unset, zero or negative included.
func TestLimiterBurstFloor(t *testing.T) {
	for _, burst := range []int{-1, 0, 1, 50} {
		lim := newLimiter(100, burst, time.Minute)
		now := time.Now()
		for i := 0; i < 1000; i++ {
			if ok, wait := lim.allowWait("client", now.Add(time.Duration(i)*50*time.Millisecond)); !ok {
				t.Fatalf("burst %d: call %d refused (retry in %v) at a fifth of the rate", burst, i, wait)
			}
		}
		// The floor is a depth of one, not a licence: a second call in the
		// same instant still waits for its token.
		if burst <= 1 && lim.allow("client", now.Add(999*50*time.Millisecond)) {
			t.Fatalf("burst %d: two calls in one instant both allowed", burst)
		}
	}
}

// TestFreshRegistryHoldsLittle: a store's metrics registry, built the way
// New builds it (its counters, gauge and histograms, the ingest log's
// beside them), holds at most 16 KiB before anything is observed. A
// histogram makes its bucket blocks as observations reach them; when each
// of a store's histograms held all 1,888 buckets up front, the registry
// held about 160 KiB, 3.6 MB over the twenty stores a crawl benchmark
// builds.
func TestFreshRegistryHoldsLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race allocator pads every allocation; the bound is on the production layout")
	}
	build := func() any {
		s := &Server{cfg: Config{Node: "shard-0"}}
		s.initMetrics()
		wal.New(wal.Config{}, s.reg)
		return s.reg
	}
	build() // whatever the first build allocates once for the process
	// Another goroutine's allocations between the readings can only add to
	// one, so the least of three is the registry's.
	const bound = 16 << 10
	held := min(heldBy(build), heldBy(build), heldBy(build))
	t.Logf("a fresh store's registry holds %d B", held)
	if held > bound {
		t.Fatalf("a fresh store's registry holds %d B, want at most %d", held, bound)
	}
}
