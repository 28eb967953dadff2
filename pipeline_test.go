package planetapps_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/edgecache"
	"planetapps/internal/experiments"
	"planetapps/internal/fleet"
	"planetapps/internal/loadgen"
	"planetapps/internal/marketsim"
	"planetapps/internal/model"
)

// crawlOptions is the store cmd/crawl -days 2 -scale 0.05 -proxies 0
// crawls (anzhi at seed 1), with its rate limit off.
var crawlOptions = func() fleet.Options {
	opts := fleet.CrawlOptions("anzhi", 0.05, 1, 2)
	opts.Server.RatePerSec = 0
	return opts
}()

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
	var so fleet.StackOptions
	if viaEdge {
		so.Edge = &edgecache.Config{}
	}
	st, err := fleet.NewStack(opts, so)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := crawler.DefaultConfig(st.URL)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	c, err := crawler.New(cfg, db.New())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		if day > 0 {
			if err := st.AdvanceDay(); err != nil {
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

// TestOneStackCarriesBothDrivers puts a write workload and a crawl on one
// stack on the same day: cmd/loadtest's engine posts downloads, ratings
// and comments through the gateway of a 2-shard fleet while the crawler
// walks it. After the day-roll, the next crawl shows every write the store
// acknowledged, against a twin stack that saw the same crawls and no
// writes: each app's downloads are the twin's plus exactly its accepted
// download writes (Market.ApplyDownloadDelta adds the ingested counts to a
// trajectory the writes do not move), and the comment records the twin
// lacks are exactly the accepted ratings and comments, one record each,
// stamped at the boundary of the day they were merged into.
func TestOneStackCarriesBothDrivers(t *testing.T) {
	opts := crawlOptions
	opts.Shards = 2
	type stack struct {
		*fleet.Stack
		crawler *crawler.Crawler
	}
	stacks := make([]stack, 2) // the written one, then its twin
	for i := range stacks {
		st, err := fleet.NewStack(opts, fleet.StackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg := crawler.DefaultConfig(st.URL)
		cfg.RatePerSec = 0
		cfg.FetchComments = true
		c, err := crawler.New(cfg, db.New())
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = stack{st, c}
	}
	written, twin := stacks[0], stacks[1]
	ctx := context.Background()

	acks := &ackLog{downloads: map[int32]int64{}, commented: map[db.CommentRecord]int{}}
	g, err := loadgen.New(loadgen.Config{
		BaseURL:   written.URL,
		Client:    &http.Client{Transport: acks.recorder(http.DefaultTransport)},
		Mode:      loadgen.ClosedLoop,
		Users:     8,
		MaxEvents: 1500,
		WriteMix:  0.3,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	crawled := make(chan error, 1)
	go func() {
		_, err := written.crawler.CrawlDay(ctx)
		crawled <- err
	}()
	rep, err := g.Run(ctx, &eventList{apps: int32(written.Inproc.NumApps()), n: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-crawled; err != nil {
		t.Fatal(err)
	}
	if _, err := twin.crawler.CrawlDay(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range stacks {
		if err := st.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.crawler.CrawlDay(ctx); err != nil {
			t.Fatal(err)
		}
	}

	var accepted int64
	for _, n := range acks.downloads {
		accepted += n
	}
	if accepted == 0 || len(acks.commented) == 0 {
		t.Fatalf("%d downloads and %d distinct ratings or comments accepted: nothing to find", accepted, len(acks.commented))
	}
	if acks.accepted != rep.WriteAccepted {
		t.Fatalf("the store acknowledged %d writes, loadgen reports %d", acks.accepted, rep.WriteAccepted)
	}
	t.Logf("%d writes accepted: %d downloads, and ratings or comments of %d distinct records", rep.WriteAccepted, accepted, len(acks.commented))

	twinApps := twin.crawler.DB().Apps()
	apps := written.crawler.DB().Apps()
	if len(apps) != len(twinApps) {
		t.Fatalf("%d apps crawled, the twin's crawl has %d", len(apps), len(twinApps))
	}
	for i, a := range apps {
		b := twinApps[i]
		if a.ID != b.ID || len(a.Daily) != 2 || len(b.Daily) != 2 {
			t.Fatalf("app %d: %d days crawled, twin's app %d %d", a.ID, len(a.Daily), b.ID, len(b.Daily))
		}
		if a.Daily[0].Downloads != b.Daily[0].Downloads {
			t.Fatalf("app %d on the day of the writes: %d downloads, the twin %d", a.ID, a.Daily[0].Downloads, b.Daily[0].Downloads)
		}
		if got, want := a.Daily[1].Downloads, b.Daily[1].Downloads+acks.downloads[a.ID]; got != want {
			t.Errorf("app %d the next day: %d downloads, want the twin's %d + %d written", a.ID, got, b.Daily[1].Downloads, acks.downloads[a.ID])
		}
	}

	// The writes were merged into day 1, whose boundary stamps them.
	added := map[db.CommentRecord]int{}
	for _, c := range written.crawler.DB().Comments() {
		added[c]++
	}
	for _, c := range twin.crawler.DB().Comments() {
		added[c]--
	}
	want := map[db.CommentRecord]int{}
	for c, n := range acks.commented {
		c.UnixTime = int64(written.Inproc.Day()) * 86400
		want[c] += n
	}
	for c, n := range want {
		if added[c] != n {
			t.Errorf("app %d: %d accepted copies of user %d's rating %d, the crawl added %d", c.App, n, c.User, c.Rating, added[c])
		}
	}
	for c, n := range added {
		if n != 0 && want[c] == 0 {
			t.Errorf("app %d: the crawl added %d records %+v that no accepted write posted", c.App, n, c)
		}
	}
}

// eventList is n workload events over apps, each user on a spread of
// apps, in a fixed order.
type eventList struct {
	apps, i, n int32
}

func (l *eventList) Next() (model.Event, error) {
	if l.i == l.n {
		return model.Event{}, io.EOF
	}
	l.i++
	return model.Event{User: l.i % 400, App: l.i * 7919 % l.apps}, nil
}

// ackLog is what a store acknowledged of a workload's writes, as seen on
// the wire: accepted (not deduplicated) downloads per app, and the accepted
// ratings and comments, counted per (app, user, rating) record with no
// timestamp.
type ackLog struct {
	mu        sync.Mutex
	accepted  int64
	downloads map[int32]int64
	commented map[db.CommentRecord]int
}

// recorder wraps next so that every POST the store acknowledges is logged.
func (l *ackLog) recorder(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Method != http.MethodPost {
			return next.RoundTrip(req)
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		resp, err := next.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		ackBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(ackBody))
		var ack struct {
			Deduped bool `json:"deduped"`
		}
		var post struct {
			User   int32 `json:"user"`
			Rating int8  `json:"rating"`
		}
		if err := json.Unmarshal(ackBody, &ack); err != nil || ack.Deduped {
			return resp, err
		}
		if err := json.Unmarshal(body, &post); err != nil {
			return nil, err
		}
		// /api/v1/apps/{id}/{download,rate,comments}
		parts := strings.Split(req.URL.Path, "/")
		id, err := strconv.Atoi(parts[4])
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		l.accepted++
		if parts[5] == "download" {
			l.downloads[int32(id)]++
		} else {
			l.commented[db.CommentRecord{App: int32(id), User: post.User, Rating: post.Rating}]++
		}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
