package resilient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return New(cfg)
}

func TestClientRetriesServerErrorsThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{MaxRetries: 4})
	res, err := c.Get(context.Background(), srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if res.Status != 200 || string(res.Body) != `{"ok":true}` {
		t.Fatalf("got %d %q", res.Status, res.Body)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hits = %d, want 3", got)
	}
	if s := c.Stats(); s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
}

func TestClientPermanentErrorFailsFast(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{})
	res, err := c.Get(context.Background(), srv.URL, nil, nil)
	var perr *PermanentError
	if err == nil || !errorsAs(err, &perr) {
		t.Fatalf("err = %v, want PermanentError", err)
	}
	if perr.Status != 404 || res == nil || res.Status != 404 {
		t.Fatalf("status = %v / res = %v, want 404", perr.Status, res)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hits = %d, want exactly 1 (no retries on 404)", got)
	}
}

// errorsAs avoids importing errors just for one call (and keeps the test
// explicit about the target type).
func errorsAs(err error, target **PermanentError) bool {
	for err != nil {
		if pe, ok := err.(*PermanentError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestClientHonorsEnvelopeRetryAfter(t *testing.T) {
	var hits atomic.Int64
	var firstRetry atomic.Int64
	var trippedNS atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n == 1 {
			trippedNS.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1") // coarse header: 1 full second
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			// The envelope's ms field must win over the 1s header.
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down","retry_after_ms":40}}`)
			return
		}
		firstRetry.Store(time.Now().UnixNano() - trippedNS.Load())
		fmt.Fprint(w, `ok`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{})
	if _, err := c.Get(context.Background(), srv.URL, nil, nil); err != nil {
		t.Fatalf("Get: %v", err)
	}
	waited := time.Duration(firstRetry.Load())
	if waited < 40*time.Millisecond {
		t.Fatalf("retried after %v, want >= envelope's 40ms", waited)
	}
	if waited > 700*time.Millisecond {
		t.Fatalf("retried after %v — header's 1s won over envelope's 40ms", waited)
	}
	if s := c.Stats(); s.RetryAfterWaits != 1 {
		t.Fatalf("RetryAfterWaits = %d, want 1", s.RetryAfterWaits)
	}
}

// TestClientRetryAfterBudgetBounds pins the dual-budget design: hinted
// rejections never spend MaxRetries (a storm deeper than the retry count
// still drains), but their cumulative wait is bounded by retryAfterBudget
// so a server that 429s forever cannot park a Get indefinitely.
func TestClientRetryAfterBudgetBounds(t *testing.T) {
	t.Run("storm deeper than MaxRetries drains", func(t *testing.T) {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) <= 10 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"busy","retry_after_ms":1}}`)
				return
			}
			fmt.Fprint(w, `ok`)
		}))
		defer srv.Close()

		c := newTestClient(t, Config{MaxRetries: 2})
		if _, err := c.Get(context.Background(), srv.URL, nil, nil); err != nil {
			t.Fatalf("Get through a 10-deep hinted storm with MaxRetries=2: %v", err)
		}
		if got := hits.Load(); got != 11 {
			t.Fatalf("server hits = %d, want 11", got)
		}
	})
	t.Run("perpetual 429 exhausts the time budget", func(t *testing.T) {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Retry-After", "5")
			http.Error(w, "busy", http.StatusTooManyRequests)
		}))
		defer srv.Close()

		c := newTestClient(t, Config{MaxRetries: 50, Clock: newFakeClock()})
		res, err := c.Get(context.Background(), srv.URL, nil, nil)
		if err == nil {
			t.Fatal("perpetual 429 succeeded")
		}
		if res == nil || res.Status != http.StatusTooManyRequests {
			t.Fatalf("final response = %+v, want the last 429", res)
		}
		// 20s budget at 5s per wait: waits accrued 0/5/10/15s pass the
		// check, the next rejection (20s accrued) gives up — 5 requests,
		// far below what MaxRetries=50 would have allowed.
		if got := hits.Load(); got != 5 {
			t.Fatalf("server hits = %d, want the 5 the 20s budget affords", got)
		}
	})
}

func TestClientValidationFailureTriggersRefetch(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			fmt.Fprint(w, "{\"ok\":\x00\x00}") // damaged payload, status 200
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{MaxRetries: 4})
	var out struct{ OK bool }
	res, err := c.Get(context.Background(), srv.URL, nil, func(r *Result) error {
		return json.Unmarshal(r.Body, &out)
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !out.OK || res.Status != 200 {
		t.Fatalf("decoded %+v status %d after refetch", out, res.Status)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server hits = %d, want 2 (refetch after invalid body)", got)
	}
	if s := c.Stats(); s.InvalidBodies != 1 {
		t.Fatalf("InvalidBodies = %d, want 1", s.InvalidBodies)
	}
}

func TestClientHedgesSlowPrimary(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Primary stalls far beyond the hedge trigger.
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		fmt.Fprint(w, `fast`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{HedgeAfter: 30 * time.Millisecond, MaxHedges: 1})
	start := time.Now()
	res, err := c.Get(context.Background(), srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(res.Body) != "fast" {
		t.Fatalf("body = %q", res.Body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("took %v — hedge did not rescue the stalled primary", elapsed)
	}
	s := c.Stats()
	if s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("Hedges = %d HedgeWins = %d, want 1/1", s.Hedges, s.HedgeWins)
	}
}

func TestClientAIMDDecreasesOn429(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `ok`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{MaxRetries: 4, AIMD: 8})
	if _, err := c.Get(context.Background(), srv.URL, nil, nil); err != nil {
		t.Fatalf("Get: %v", err)
	}
	s := c.Stats()
	if s.AIMDDecreases != 2 {
		t.Fatalf("AIMDDecreases = %d, want 2", s.AIMDDecreases)
	}
	if s.AIMDLimit >= 4 {
		t.Fatalf("AIMDLimit = %v, want shrunk below the start of 8/2", s.AIMDLimit)
	}
}

func TestClientBreakerWaitsOutOpenCircuit(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= breakerFailures {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `up`)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{MaxRetries: breakerFailures + 3, Breaker: true, Clock: newFakeClock()})
	res, err := c.Get(context.Background(), srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(res.Body) != "up" {
		t.Fatalf("body = %q", res.Body)
	}
	s := c.Stats()
	if s.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", s.BreakerOpens)
	}
	if s.BreakerWaits == 0 {
		t.Fatalf("BreakerWaits = 0, want > 0 (retry should have waited out the open circuit)")
	}
}

func TestClientTransportAdapterSurfacesFinalStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{})
	hc := &http.Client{Transport: c.Transport()}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("Get via adapter: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404 surfaced as a response, not an error", resp.StatusCode)
	}
}

func TestClientContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 3 {
			cancel()
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{MaxRetries: 100, Clock: newFakeClock()})
	start := time.Now()
	_, err := c.Get(ctx, srv.URL, nil, nil)
	if err == nil {
		t.Fatalf("Get succeeded against an all-503 server")
	}
	if time.Since(start) > 2*time.Second || hits.Load() > 4 {
		t.Fatalf("cancellation took %v and %d requests — retry loop ignored the context", time.Since(start), hits.Load())
	}
}

func TestRetryAfterHint(t *testing.T) {
	now := time.Date(2013, 4, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		status int
		hdr    http.Header
		body   string
		want   time.Duration
	}{
		{"none", 429, http.Header{}, "", 0},
		{"header-seconds", 429, http.Header{"Retry-After": {"2"}}, "", 2 * time.Second},
		{"header-date", 503, http.Header{"Retry-After": {now.Add(3 * time.Second).Format(http.TimeFormat)}}, "", 3 * time.Second},
		{"envelope-wins", 429, http.Header{"Retry-After": {"5"}}, `{"error":{"code":"rate_limited","retry_after_ms":150}}`, 150 * time.Millisecond},
		{"envelope-garbage-falls-back", 429, http.Header{"Retry-After": {"1"}}, `{nope`, time.Second},
		{"not-throttling-status", 500, http.Header{"Retry-After": {"9"}}, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterHint(tc.status, tc.hdr, []byte(tc.body), now); got != tc.want {
				t.Fatalf("retryAfterHint = %v, want %v", got, tc.want)
			}
		})
	}
}
