package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/faultinject"
	"planetapps/internal/storeserver"
)

// canonicalDB renders a crawl database deterministically: apps sorted by
// ID (db.Apps already does), comments sorted — worker interleaving varies
// run to run, so insertion order cannot take part in the byte-identity
// check, but the set of rows must.
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

// crawlInto runs one CrawlDay against url into a fresh database.
func crawlInto(t *testing.T, cfg crawler.Config) (*db.DB, crawler.Stats) {
	t.Helper()
	d := db.New()
	c, err := crawler.New(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatalf("crawl failed: %v", err)
	}
	return d, st
}

func crawlCfg(url string) crawler.Config {
	cfg := crawler.DefaultConfig(url)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	cfg.FetchAPKs = true
	return cfg
}

// TestCrawlThroughGatewayByteIdentical is the end-to-end identity gate for
// the fleet: a crawl through the gateway — whatever the shard count — must
// build the exact same database as a crawl of the unsharded store, both on
// the initial day and after a coordinated fleet day-roll. Opaque cursors
// differ across topologies by design; the data they paginate must not.
func TestCrawlThroughGatewayByteIdentical(t *testing.T) {
	single := singleNode(t, 40)
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	d0, _ := crawlInto(t, crawlCfg(ts.URL))
	wantDay0 := canonicalDB(t, d0)
	if err := single.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	d1, _ := crawlInto(t, crawlCfg(ts.URL))
	wantDay1 := canonicalDB(t, d1)

	for _, shards := range []int{1, 4} {
		ip, err := NewInproc(Options{
			Shards:       shards,
			Store:        testStore,
			Scale:        testScale,
			Seed:         testSeed,
			Days:         testDays,
			CommentUsers: 300,
			Server:       storeserver.Config{PageSize: 40},
		})
		if err != nil {
			t.Fatal(err)
		}
		gw := httptest.NewServer(ip.Handler())
		fd, _ := crawlInto(t, crawlCfg(gw.URL))
		if got := canonicalDB(t, fd); !bytes.Equal(got, wantDay0) {
			t.Fatalf("%d-shard gateway crawl diverged from single-node crawl on day 0 (%d vs %d canonical bytes)",
				shards, len(got), len(wantDay0))
		}
		if err := ip.AdvanceDay(); err != nil {
			t.Fatalf("%d-shard fleet roll: %v", shards, err)
		}
		fd1, _ := crawlInto(t, crawlCfg(gw.URL))
		if got := canonicalDB(t, fd1); !bytes.Equal(got, wantDay1) {
			t.Fatalf("%d-shard gateway crawl diverged from single-node crawl after day-roll (%d vs %d canonical bytes)",
				shards, len(got), len(wantDay1))
		}
		gw.Close()
	}
}

// TestCrawlConvergesUnderShardKill kills a shard out from under a crawl:
// the shard-kill scenario resets every request to shard 0 for a window of
// arrivals (plus background flakiness fleet-wide), the gateway surfaces
// those as retryable 5xx, and the crawler's retry budget must drain the
// outage — converging to a database byte-identical to a fault-free
// single-node crawl. Outages may cost retries and time, never data.
func TestCrawlConvergesUnderShardKill(t *testing.T) {
	single := singleNode(t, 40)
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	want := func() []byte {
		d, _ := crawlInto(t, crawlCfg(ts.URL))
		return canonicalDB(t, d)
	}()

	sc, err := faultinject.Lookup("shard-kill")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInproc(Options{
		Shards:       4,
		Store:        testStore,
		Scale:        testScale,
		Seed:         testSeed,
		Days:         testDays,
		CommentUsers: 300,
		Server:       storeserver.Config{PageSize: 40},
		Chaos:        &sc,
		ChaosSeed:    0x5A4DF1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(ip.Handler())
	defer gw.Close()

	cfg := crawlCfg(gw.URL)
	// The kill window is deterministic (p=1 for its span), so a single
	// request may need to eat the whole span in retries before the window
	// drains; Naive keeps the retry loop but strips hedging and the
	// breaker, whose fail-fast would starve the drain.
	cfg.Naive = true
	cfg.MaxRetries = 60
	cfg.Backoff = time.Millisecond
	d, st := crawlInto(t, cfg)

	if got := canonicalDB(t, d); !bytes.Equal(got, want) {
		t.Fatalf("crawl under shard-kill diverged from fault-free single-node crawl (%d vs %d canonical bytes)",
			len(got), len(want))
	}
	if st.Client.Retries == 0 {
		t.Fatal("shard-kill crawl needed no retries; the outage was never exercised")
	}
	t.Logf("shard-kill: %d requests, %d retries", st.Requests, st.Client.Retries)
}
