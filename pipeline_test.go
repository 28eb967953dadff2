package planetapps_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/edgecache"
	"planetapps/internal/experiments"
	"planetapps/internal/fleet"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// crawlOptions is the store cmd/crawl -days 2 -scale 0.05 -proxies 0
// crawls: anzhi at seed 1, its default 60-day period, 5,000 commenting
// users. The stores here run without a rate limit; what they serve is the
// same.
var crawlOptions = fleet.Options{
	Store: "anzhi", Scale: 0.05, Seed: 1, Days: 60, CommentUsers: 5000,
	Server: storeserver.Config{},
}

// TestEndToEndPipeline is Figure 1 held to identity: an anzhi store crawled
// for two days through a single node, a 3-shard fleet behind the gateway
// and an edge cache is one database, the one whose sorted lines
// testdata/crawl.golden pins by sha256; on it, the T1, F2–F4 and F5–F7
// runners print the golden's tables, which are exactly the tables they
// print on the market's own series, catalog and comment stream.
func TestEndToEndPipeline(t *testing.T) {
	golden, err := os.ReadFile("testdata/crawl.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantHash, wantTables, _ := strings.Cut(string(golden), "\n")

	var crawled *db.DB
	var sorted string
	for _, tier := range []struct {
		name    string
		shards  int
		viaEdge bool
	}{{"node", 1, false}, {"3-shard fleet", 3, false}, {"edge", 1, true}} {
		d := crawl(t, tier.shards, tier.viaEdge)
		lines := sortedLines(t, d)
		if crawled == nil {
			crawled, sorted = d, lines
		} else if lines != sorted {
			t.Fatalf("the %s crawl is not the node crawl's database", tier.name)
		}
	}
	if got := fmt.Sprintf("sorted-db-sha256 %x", sha256.Sum256([]byte(sorted))); got != wantHash {
		t.Fatalf("crawl database: %s, testdata/crawl.golden has %s", got, wantHash)
	}

	// The market's own: the same store, its series recorded for the crawled
	// days, its comments generated over the day-0 catalog as every fleet
	// member generates them.
	mcfg := marketsim.DefaultConfig(catalog.Profiles[crawlOptions.Store].Scale(crawlOptions.Scale))
	mcfg.Days = crawlOptions.Days
	m, err := marketsim.New(mcfg, crawlOptions.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(crawlOptions.CommentUsers), crawlOptions.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	own := &experiments.Dataset{Series: m.Series(), Catalog: m.Catalog(), Comments: cs}
	loaded, err := experiments.Load(crawled)
	if err != nil {
		t.Fatal(err)
	}

	var all strings.Builder
	for _, id := range []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7"} {
		fromCrawl, fromMarket := printed(t, loaded, id), printed(t, own, id)
		if fromCrawl != fromMarket {
			t.Errorf("%s on the crawl:\n%s\n%s on the market's own data:\n%s", id, fromCrawl, id, fromMarket)
		}
		all.WriteString(fromCrawl)
	}
	if all.String() != wantTables {
		t.Errorf("the crawl's tables differ from testdata/crawl.golden")
	}
}

// crawl runs cmd/crawl's two daily crawls of crawlOptions' store on a fleet
// of shards, directly or through an edge cache, with no politeness limit.
func crawl(t *testing.T, shards int, viaEdge bool) *db.DB {
	t.Helper()
	opts := crawlOptions
	opts.Shards = shards
	ip, err := fleet.NewInproc(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ip.Front())
	defer ts.Close()
	base := ts.URL
	if viaEdge {
		edge, err := edgecache.New(edgecache.Config{Origin: base})
		if err != nil {
			t.Fatal(err)
		}
		es := httptest.NewServer(edge.Handler())
		defer es.Close()
		base = es.URL
	}
	cfg := crawler.DefaultConfig(base)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	c, err := crawler.New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		if day > 0 {
			if err := ip.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CrawlDay(context.Background()); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	return c.DB()
}

// sortedLines is the database as `sort crawl.jsonl` prints it: its JSONL
// lines in byte order, so worker interleaving cannot show.
func sortedLines(t *testing.T, d *db.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// printed is what cmd/experiments prints for runner id on one dataset.
func printed(t *testing.T, ds *experiments.Dataset, id string) string {
	t.Helper()
	s, err := experiments.NewDatasetSuite(ds, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := experiments.Print(&out, s, []string{id}, false, io.Discard); err != nil {
		t.Fatal(err)
	}
	return out.String()
}
