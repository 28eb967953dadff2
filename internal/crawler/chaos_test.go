package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/db"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/proxy"
	"planetapps/internal/storeserver"
)

// chaosStore builds a small store, optionally fronted by a fault injector.
func chaosStore(t *testing.T, inj *faultinject.Injector) *httptest.Server {
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
	if inj != nil {
		srv.SetChaos(inj)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// canonical renders a database in a deterministic form: apps sorted by ID
// (as db.Apps already returns them) and comments sorted — worker
// interleaving varies run to run, so insertion order cannot take part in
// the byte-identity check, but the *set* of rows must.
func canonical(t *testing.T, d *db.DB) []byte {
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

// crawlOnce runs one CrawlDay into a fresh database and returns it with
// the session stats.
func crawlOnce(t *testing.T, cfg Config) (*db.DB, Stats) {
	t.Helper()
	d := db.New()
	c, err := New(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.CrawlDay(ctx)
	if err != nil {
		t.Fatalf("crawl failed: %v (client stats %+v)", err, c.client.Stats())
	}
	return d, st
}

// TestCrawlConvergesUnderChaos is the acceptance test for the whole
// chaos/resilience stack: for every built-in fault scenario, a crawl
// through the injector must converge to a database byte-identical to a
// fault-free crawl of the same store. Faults may cost retries, hedges, and
// time — never data.
func TestCrawlConvergesUnderChaos(t *testing.T) {
	baseline := func(t *testing.T) []byte {
		ts := chaosStore(t, nil)
		cfg := DefaultConfig(ts.URL)
		cfg.RatePerSec = 0
		cfg.FetchComments = true
		d, _ := crawlOnce(t, cfg)
		return canonical(t, d)
	}

	scenarios := []string{"latency", "error-burst", "resets", "corruption", "rate-limit-storm", "slow-loris"}
	for _, name := range scenarios {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := baseline(t)
			sc, err := faultinject.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			// Shrink injected delays so the latency/loris scenarios stay
			// test-speed; probabilities and windows are untouched.
			inj := faultinject.New(sc.Scale(0.2), 0xC4A05EED, nil)
			ts := chaosStore(t, inj)

			cfg := DefaultConfig(ts.URL)
			cfg.RatePerSec = 0
			cfg.FetchComments = true
			// Storm drains are covered by the client's Retry-After budget
			// (hinted rejections don't spend MaxRetries); this only needs to
			// absorb the unhinted faults — resets, corruption, plain 500s.
			cfg.MaxRetries = 12
			cfg.HedgeAfter = 60 * time.Millisecond
			d, st := crawlOnce(t, cfg)

			if got := canonical(t, d); !bytes.Equal(got, want) {
				t.Fatalf("crawl under %q diverged from fault-free crawl (%d vs %d canonical bytes)",
					name, len(got), len(want))
			}
			if inj.InjectedTotal() == 0 {
				t.Fatalf("scenario %q injected nothing; the crawl was never exercised", name)
			}
			t.Logf("%s: %d faults injected, %d attempts, %d retries, %d hedges (%d wins), %d invalid bodies",
				name, inj.InjectedTotal(), st.Requests, st.Client.Retries,
				st.Client.Hedges, st.Client.HedgeWins, st.Client.InvalidBodies)
		})
	}
}

// TestCrawlConvergesThroughPartitionedProxies covers the per-node fleet
// scenario: node 0 dead (every relay reset), node 1 dropping half. The
// health-scored selector must rotate around the dead node and the crawl
// must still converge byte-identically.
func TestCrawlConvergesThroughPartitionedProxies(t *testing.T) {
	want := func(t *testing.T) []byte {
		ts := chaosStore(t, nil)
		cfg := DefaultConfig(ts.URL)
		cfg.RatePerSec = 0
		cfg.FetchComments = true
		d, _ := crawlOnce(t, cfg)
		return canonical(t, d)
	}(t)

	ts := chaosStore(t, nil)
	sc, err := faultinject.Lookup("proxy-partition")
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 3; i++ {
		p := proxy.New("node")
		// Each fleet node gets its own injector: rules scoped by Node
		// fire only on the matching node, so node 2 stays healthy.
		inj := faultinject.NewForNode(sc, 0xF1EE7, i, nil)
		psrv := httptest.NewServer(inj.Wrap(p.Handler()))
		t.Cleanup(psrv.Close)
		urls = append(urls, psrv.URL)
	}

	cfg := DefaultConfig(ts.URL)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	cfg.Proxies = urls
	cfg.MaxRetries = 12
	d, st := crawlOnce(t, cfg)

	if got := canonical(t, d); !bytes.Equal(got, want) {
		t.Fatalf("partitioned-proxy crawl diverged from direct crawl (%d vs %d canonical bytes)", len(got), len(want))
	}
	if st.Client.ProxyDemotions == 0 {
		t.Fatal("dead node was never demoted; health scoring inactive")
	}
	t.Logf("partition: %d attempts, %d retries, %d hedges (%d wins), %d demotions",
		st.Requests, st.Client.Retries, st.Client.Hedges, st.Client.HedgeWins, st.Client.ProxyDemotions)
}

// TestChaosCrawlDeterministicInjection pins the reproducibility claim:
// the same scenario, seed, and request sequence injects the same faults.
// Two single-worker crawls with hedging off (hedges race wall-clock time,
// which is exactly what a determinism check must exclude) against
// identically seeded stores observe identical injection counts. The
// scenario's count windows are what make this hold: a fault fires by the
// request's position in the stream, never by when it arrived.
func TestChaosCrawlDeterministicInjection(t *testing.T) {
	run := func() (int64, []byte) {
		sc, err := faultinject.Lookup("error-burst")
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(sc.Scale(0.2), 1234, nil)
		ts := chaosStore(t, inj)
		cfg := DefaultConfig(ts.URL)
		cfg.RatePerSec = 0
		cfg.Workers = 1
		cfg.HedgeAfter = 0
		cfg.MaxRetries = 30
		d, _ := crawlOnce(t, cfg)
		return inj.InjectedTotal(), canonical(t, d)
	}
	n1, db1 := run()
	n2, db2 := run()
	if n1 != n2 {
		t.Fatalf("same seed injected %d faults in run 1, %d in run 2", n1, n2)
	}
	if n1 == 0 {
		t.Fatal("no faults injected")
	}
	if !bytes.Equal(db1, db2) {
		t.Fatal("identically seeded runs produced different databases")
	}
}
