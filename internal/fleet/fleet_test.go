package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"planetapps/internal/apiwire"
	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// --- helpers ---------------------------------------------------------------

const (
	testStore = "slideme"
	testScale = 0.02
	testSeed  = uint64(7)
	testDays  = 64
)

// newFleet builds an in-process fleet for tests.
func newFleet(t *testing.T, shards, pageSize int) *Inproc {
	t.Helper()
	ip, err := NewInproc(Options{
		Shards:       shards,
		Store:        testStore,
		Scale:        testScale,
		Seed:         testSeed,
		Days:         testDays,
		CommentUsers: 300,
		Server:       storeserver.Config{PageSize: pageSize},
	})
	if err != nil {
		t.Fatalf("NewInproc: %v", err)
	}
	return ip
}

// handBuilt assembles an unsharded store by hand — profile, market, server,
// comments, series recording left on — without going through NewShard: the
// reference every fleet in these tests is compared with.
func handBuilt(t *testing.T, pageSize int, scale float64, commentUsers int) *storeserver.Server {
	t.Helper()
	prof, ok := catalog.Profiles[testStore]
	if !ok {
		t.Fatalf("no store profile %q", testStore)
	}
	cfg := marketsim.DefaultConfig(prof.Scale(scale))
	cfg.Days = testDays
	m, err := marketsim.New(cfg, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	srv := storeserver.New(m, storeserver.Config{PageSize: pageSize})
	if commentUsers > 0 {
		cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(commentUsers), testSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetComments(cs)
	}
	return srv
}

// singleNode builds the unsharded store equivalent to newFleet's.
func singleNode(t *testing.T, pageSize int) *storeserver.Server {
	t.Helper()
	return handBuilt(t, pageSize, testScale, 300)
}

// get fetches a path from a handler through the in-memory transport.
func get(t *testing.T, h http.Handler, path string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	client := &http.Client{Transport: HandlerTransport{Handler: h}}
	req, err := http.NewRequest(http.MethodGet, "http://test"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp, body
}

// cursorPage is the listing slice shape with rows kept raw for byte
// comparison; next_cursor is excluded from identity checks (it is opaque
// and topology-specific by design).
type cursorPage struct {
	Apps       []json.RawMessage `json:"apps"`
	NextCursor string            `json:"next_cursor"`
	Total      int               `json:"total"`
}

// walkCursor performs a full cursor walk and returns the parsed pages.
func walkCursor(t *testing.T, h http.Handler) []cursorPage {
	t.Helper()
	var pages []cursorPage
	cursor := ""
	for {
		resp, body := get(t, h, "/api/v1/apps?cursor="+cursor, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor walk: status %d: %s", resp.StatusCode, body)
		}
		var page cursorPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("cursor walk: %v", err)
		}
		pages = append(pages, page)
		if page.NextCursor == "" {
			return pages
		}
		cursor = page.NextCursor
		if len(pages) > 10000 {
			t.Fatal("cursor walk does not terminate")
		}
	}
}

// samePages asserts two walks serve identical listing content: same page
// count, and per page byte-identical rows and totals.
func samePages(t *testing.T, want, got []cursorPage, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: page count %d != %d", label, len(got), len(want))
	}
	for p := range want {
		if want[p].Total != got[p].Total {
			t.Fatalf("%s: page %d total %d != %d", label, p, got[p].Total, want[p].Total)
		}
		if len(want[p].Apps) != len(got[p].Apps) {
			t.Fatalf("%s: page %d rows %d != %d", label, p, len(got[p].Apps), len(want[p].Apps))
		}
		for i := range want[p].Apps {
			if string(want[p].Apps[i]) != string(got[p].Apps[i]) {
				t.Fatalf("%s: page %d row %d differs:\n  want %s\n  got  %s",
					label, p, i, want[p].Apps[i], got[p].Apps[i])
			}
		}
	}
}

// --- ring ------------------------------------------------------------------

func TestRingDeterministicAndCovering(t *testing.T) {
	a := NewRing(4, 0)
	b := NewRing(4, 0)
	owned := make([]int, 4)
	for id := int32(0); id < 10000; id++ {
		oa, ob := a.Owner(id), b.Owner(id)
		if oa != ob {
			t.Fatalf("ring not deterministic: id %d -> %d vs %d", id, oa, ob)
		}
		if oa < 0 || oa >= 4 {
			t.Fatalf("owner out of range: id %d -> %d", id, oa)
		}
		owned[oa]++
	}
	for s, n := range owned {
		if n == 0 {
			t.Fatalf("shard %d owns nothing of 10000 ids", s)
		}
		// Consistent hashing with 64 vnodes should keep imbalance mild.
		if n < 10000/4/4 || n > 10000*3/4 {
			t.Fatalf("shard %d owns %d of 10000 — pathological imbalance", s, n)
		}
	}
	if one := NewRing(1, 0); one.Owner(12345) != 0 {
		t.Fatal("single-shard ring must own everything")
	}
}

func TestRingOwnsFuncMatchesOwner(t *testing.T) {
	r := NewRing(3, 0)
	owns := []func(int32) bool{r.OwnsFunc(0), r.OwnsFunc(1), r.OwnsFunc(2)}
	for id := int32(0); id < 1000; id++ {
		o := r.Owner(id)
		for s := 0; s < 3; s++ {
			if owns[s](id) != (s == o) {
				t.Fatalf("id %d: OwnsFunc(%d) disagrees with Owner=%d", id, s, o)
			}
		}
	}
}

// TestRingOwnershipDigest pins who owns what: the owner of every id below
// 100k on rings of 1-12 shards at the default, a small and a large vnode
// count, hashed. Taken before the ring's finalizer became rng.Mix64; a
// change here re-partitions every sharded store.
func TestRingOwnershipDigest(t *testing.T) {
	h := sha256.New()
	for shards := 1; shards <= 12; shards++ {
		for _, vnodes := range []int{0, 16, 200} {
			r := NewRing(shards, vnodes)
			for id := int32(0); id < 100000; id++ {
				h.Write([]byte{byte(r.Owner(id))}) //nolint:errcheck
			}
		}
	}
	const want = "060a05caa6c9d092b95791ba7997e03fbd6d3e2552ff8aa8cf33e768adb48e43"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("ring ownership digest = %s, want %s", got, want)
	}
}

// --- byte identity: gateway vs single node ---------------------------------

func TestGatewayListingMatchesSingleNode(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		ip := newFleet(t, shards, 7)
		srv := singleNode(t, 7)
		single := walkCursor(t, srv.Handler())
		merged := walkCursor(t, ip.Gateway)
		samePages(t, single, merged, "day0")

		// Roll both one day — the fleet through the two-phase swap — and
		// compare again: partitioned day-rolls must reproduce the
		// single-node catalog evolution exactly.
		if err := ip.AdvanceDay(); err != nil {
			t.Fatalf("fleet roll: %v", err)
		}
		if err := srv.AdvanceDay(); err != nil {
			t.Fatalf("single roll: %v", err)
		}
		samePages(t, walkCursor(t, srv.Handler()), walkCursor(t, ip.Gateway),
			"day1")
	}
}

func TestGatewayStatsMatchesSingleNode(t *testing.T) {
	ip := newFleet(t, 4, 7)
	srv := singleNode(t, 7)
	for day := 0; day < 3; day++ {
		respS, bodyS := get(t, srv.Handler(), "/api/v1/stats", nil)
		respG, bodyG := get(t, ip.Gateway, "/api/v1/stats", nil)
		if string(bodyS) != string(bodyG) {
			t.Fatalf("day %d: stats body differs:\n  single  %s\n  gateway %s", day, bodyS, bodyG)
		}
		if eS, eG := respS.Header.Get("Etag"), respG.Header.Get("Etag"); eS != eG {
			t.Fatalf("day %d: stats etag %q != %q", day, eG, eS)
		}
		// Conditional revalidation against the aggregated document.
		resp304, _ := get(t, ip.Gateway, "/api/v1/stats",
			http.Header{"If-None-Match": []string{respG.Header.Get("Etag")}})
		if resp304.StatusCode != http.StatusNotModified {
			t.Fatalf("day %d: expected 304 from gateway stats, got %d", day, resp304.StatusCode)
		}
		if err := ip.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		if err := srv.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGatewayProxiesAppRoutesByteIdentical(t *testing.T) {
	ip := newFleet(t, 4, 7)
	srv := singleNode(t, 7)
	_, statsBody := get(t, srv.Handler(), "/api/v1/stats", nil)
	var stats storeserver.StatsJSON
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < stats.Apps; id++ {
		for _, route := range []string{"", "/comments", "/apk"} {
			path := "/api/v1/apps/" + itoa(id) + route
			respS, bodyS := get(t, srv.Handler(), path, nil)
			respG, bodyG := get(t, ip.Gateway, path, nil)
			if respS.StatusCode != respG.StatusCode {
				t.Fatalf("%s: status %d != %d", path, respG.StatusCode, respS.StatusCode)
			}
			if string(bodyS) != string(bodyG) {
				t.Fatalf("%s: body differs", path)
			}
			if eS, eG := respS.Header.Get("Etag"), respG.Header.Get("Etag"); eS != eG {
				t.Fatalf("%s: etag %q != %q", path, eG, eS)
			}
		}
	}
	// Beyond-catalog and malformed IDs answer like a single node.
	resp, body := get(t, ip.Gateway, "/api/v1/apps/999999", nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "app_not_found") {
		t.Fatalf("unknown app: got %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ip.Gateway, "/api/v1/apps/xyz", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad app id: got %d", resp.StatusCode)
	}
}

// TestInprocGeneratesOneCommentPopulation: the comment population is a pure
// function of the catalog and seed every member shares, so an in-process
// fleet generates it once however many shards attach it. That the streams
// each shard then serves are a single node's, byte for byte, is
// TestGatewayProxiesAppRoutesByteIdentical's every-app /comments walk.
func TestInprocGeneratesOneCommentPopulation(t *testing.T) {
	generated := 0
	defer func(f func(*catalog.Catalog, comments.GenConfig, uint64) ([]comments.Comment, error)) {
		generateComments = f
	}(generateComments)
	generateComments = func(c *catalog.Catalog, cfg comments.GenConfig, seed uint64) ([]comments.Comment, error) {
		generated++
		return comments.Generate(c, cfg, seed)
	}
	ip := newFleet(t, 4, 7)
	if generated != 1 {
		t.Fatalf("a 4-shard in-process fleet generated %d comment populations, want 1", generated)
	}
	// Every shard attached it: each serves, for the apps it owns, the streams
	// a single node serves.
	srv := singleNode(t, 7)
	served := make([]int, len(ip.Servers))
	ring := NewRing(len(ip.Servers), 0)
	for id := 0; id < srv.NumApps(); id++ {
		k := ring.Owner(int32(id))
		path := "/api/v1/apps/" + itoa(id) + "/comments"
		_, want := get(t, srv.Handler(), path, nil)
		_, got := get(t, ip.Servers[k].Handler(), path, nil)
		if string(got) != string(want) {
			t.Fatalf("%s: shard %d serves %q, a single node %q", path, k, got, want)
		}
		var stream []json.RawMessage
		if err := json.Unmarshal(got, &stream); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(stream) > 0 {
			served[k]++
		}
	}
	for k, n := range served {
		if n == 0 {
			t.Fatalf("shard %d serves no comment stream: the shared population never reached it", k)
		}
	}
}

// --- cursor edge cases -----------------------------------------------------

// TestEmptyShardServes pins the empty-partition edge: a fleet wide enough
// that the ring leaves at least one shard without a single app of the
// small test catalog. The gateway must stitch around the empty partition
// silently.
func TestEmptyShardServes(t *testing.T) {
	const shards = 12 // at the test catalog size, the ring leaves a shard empty
	ip := newFleet(t, shards, 7)
	empty := -1
	// Determine ownership from the ring against the actual catalog size.
	_, statsBody := get(t, ip.Gateway, "/api/v1/stats", nil)
	var stats storeserver.StatsJSON
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	owned := make([]int, shards)
	ring := ip.Gateway.Ring()
	for id := 0; id < stats.Apps; id++ {
		owned[ring.Owner(int32(id))]++
	}
	for i, n := range owned {
		if n == 0 {
			empty = i
		}
	}
	if empty < 0 {
		t.Fatalf("no empty shard at %d apps / %d shards — pick a topology that exercises the edge", stats.Apps, shards)
	}
	single := walkCursor(t, singleNode(t, 7).Handler())
	samePages(t, single, walkCursor(t, ip.Gateway), "empty-shard walk")
}

// TestPageBoundaryAtShardBoundary sweeps page sizes so that page breaks
// land on every possible alignment with shard partition edges, including
// size 1 (every row is a page boundary).
func TestPageBoundaryAtShardBoundary(t *testing.T) {
	for _, pageSize := range []int{1, 2, 3, 7, 100} {
		ip := newFleet(t, 4, pageSize)
		srv := singleNode(t, pageSize)
		samePages(t, walkCursor(t, srv.Handler()), walkCursor(t, ip.Gateway),
			"pageSize="+itoa(pageSize))
	}
}

// TestCursorTopologyChange pins the fleet-resize contract: a cursor
// minted by a 4-shard gateway presented to a 2-shard gateway is rejected
// with the v1 bad_cursor envelope, never silently misresumed.
func TestCursorTopologyChange(t *testing.T) {
	ip4 := newFleet(t, 4, 7)
	resp, body := get(t, ip4.Gateway, "/api/v1/apps?cursor=", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first page: %d", resp.StatusCode)
	}
	var page cursorPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.NextCursor == "" {
		t.Fatal("test catalog fits one page; shrink pageSize")
	}

	ip2 := newFleet(t, 2, 7)
	resp, body = get(t, ip2.Gateway, "/api/v1/apps?cursor="+page.NextCursor, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-topology cursor: want 400, got %d: %s", resp.StatusCode, body)
	}
	var envelope apiwire.ErrorJSON
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("cross-topology cursor: not a v1 envelope: %v (%s)", err, body)
	}
	if envelope.Error.Code != "bad_cursor" {
		t.Fatalf("cross-topology cursor: code %q, want bad_cursor", envelope.Error.Code)
	}
	// A single-node cursor fed to the gateway is equally foreign.
	resp, _ = get(t, ip2.Gateway, "/api/v1/apps?cursor="+storeserver.EncodeCursor(3), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-node cursor at gateway: want 400, got %d", resp.StatusCode)
	}
}

// TestCursorStableAcrossFleetRoll walks half the listing, rolls the whole
// fleet one epoch, and finishes the walk — mirrored against a single node
// rolled at the same point. The pages must stay byte-identical, which
// subsumes the single-node cursor guarantees (no app skipped or repeated)
// and adds the fleet's: per-shard anchors survive the epoch swap.
func TestCursorStableAcrossFleetRoll(t *testing.T) {
	ip := newFleet(t, 4, 7)
	srv := singleNode(t, 7)

	walkHalfThenRoll := func(h http.Handler, roll func() error) []cursorPage {
		var pages []cursorPage
		cursor := ""
		rolled := false
		for {
			resp, body := get(t, h, "/api/v1/apps?cursor="+cursor, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("walk: status %d: %s", resp.StatusCode, body)
			}
			var page cursorPage
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatal(err)
			}
			pages = append(pages, page)
			if page.NextCursor == "" {
				return pages
			}
			cursor = page.NextCursor
			if !rolled && len(pages) == 2 {
				rolled = true
				if err := roll(); err != nil {
					t.Fatalf("mid-walk roll: %v", err)
				}
			}
		}
	}

	single := walkHalfThenRoll(srv.Handler(), srv.AdvanceDay)
	merged := walkHalfThenRoll(ip.Gateway, ip.AdvanceDay)
	samePages(t, single, merged, "mid-walk roll")
	if ip.Day() != srv.Day() {
		t.Fatalf("fleet day %d != single-node day %d", ip.Day(), srv.Day())
	}
}

// --- epoch swap ------------------------------------------------------------

func TestPrepareCommitTwoPhase(t *testing.T) {
	ip := newFleet(t, 2, 7)
	srv := ip.Servers[0]
	day0 := srv.Day()
	prepared, err := srv.PrepareDay()
	if err != nil {
		t.Fatal(err)
	}
	if prepared != day0+1 {
		t.Fatalf("prepared day %d, want %d", prepared, day0+1)
	}
	if srv.Day() != day0 {
		t.Fatalf("prepare must not change the serving day: %d", srv.Day())
	}
	again, err := srv.PrepareDay()
	if err != nil || again != prepared {
		t.Fatalf("re-prepare: day %d err %v, want %d nil", again, err, prepared)
	}
	if got := srv.CommitDay(); got != prepared {
		t.Fatalf("commit: day %d, want %d", got, prepared)
	}
	if got := srv.CommitDay(); got != prepared {
		t.Fatalf("idempotent commit: day %d, want %d", got, prepared)
	}
	// A single-node roll is the same two phases: it serves the day that
	// was prepared instead of discarding it and stepping past it.
	next, err := srv.PrepareDay()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if srv.Day() != next {
		t.Fatalf("AdvanceDay over a prepared day %d serves day %d", next, srv.Day())
	}
}

// TestAdvanceFleetConvergesDivergedFleet wedges a fleet on purpose — one
// shard rolled two days ahead out-of-band — and asserts the next
// AdvanceFleet converges everyone onto the runaway shard's next day
// instead of erroring, with the converged catalog byte-identical to a
// single node at that day (gatewayd's startup warning promises exactly
// this: "the next roll will converge them").
func TestAdvanceFleetConvergesDivergedFleet(t *testing.T) {
	ip := newFleet(t, 3, 7)
	runaway := ip.Servers[0]
	for i := 0; i < 2; i++ {
		if _, err := runaway.PrepareDay(); err != nil {
			t.Fatal(err)
		}
		runaway.CommitDay()
	}
	if _, coherent, _ := FleetDay(context.Background(), ip.shards); coherent {
		t.Fatal("fleet should be diverged")
	}

	day, err := AdvanceFleet(context.Background(), ip.shards)
	if err != nil {
		t.Fatalf("AdvanceFleet on a diverged fleet: %v", err)
	}
	if want := 3; day != want { // runaway at day 2, so the roll lands on 3
		t.Fatalf("converged day %d, want %d", day, want)
	}
	got, coherent, err := FleetDay(context.Background(), ip.shards)
	if err != nil || !coherent || got != day {
		t.Fatalf("after converge: day %d coherent %v err %v, want %d true nil", got, coherent, err, day)
	}

	srv := singleNode(t, 7)
	for srv.Day() < day {
		if err := srv.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
	samePages(t, walkCursor(t, srv.Handler()), walkCursor(t, ip.Gateway), "post-converge walk")
}

// TestNoMixedEpochUnderRoll hammers the gateway's scatter routes while
// the fleet rolls epochs underneath, asserting the core fleet invariant:
// no response ever mixes two days — the stats body's day always equals
// its X-Store-Day header, and every successful response names a day the
// fleet actually served.
func TestNoMixedEpochUnderRoll(t *testing.T) {
	ip := newFleet(t, 4, 7)
	stop := make(chan struct{})
	type obs struct {
		status  int
		hdrDay  string
		bodyDay int
	}
	results := make(chan obs, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: HandlerTransport{Handler: ip.Gateway}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("http://gw/api/v1/stats")
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results <- obs{status: resp.StatusCode}
					continue
				}
				var s storeserver.StatsJSON
				if err := json.Unmarshal(body, &s); err != nil {
					t.Errorf("stats decode: %v", err)
					return
				}
				select {
				case results <- obs{status: 200, hdrDay: resp.Header.Get("X-Store-Day"), bodyDay: s.Day}:
				default:
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if err := ip.AdvanceDay(); err != nil {
			t.Fatalf("roll %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(results)
	var ok200, skew int
	for o := range results {
		switch {
		case o.status == 200:
			ok200++
			if itoa(o.bodyDay) != o.hdrDay {
				t.Fatalf("mixed-epoch response: body day %d, header day %s", o.bodyDay, o.hdrDay)
			}
		case o.status == http.StatusServiceUnavailable:
			skew++ // epoch_skew after retries: allowed, must be rare
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if ok200 == 0 {
		t.Fatal("no successful reads during the roll storm")
	}
	if skew > ok200 {
		t.Fatalf("epoch skew dominates: %d skews vs %d successes", skew, ok200)
	}
}

// --- metrics ---------------------------------------------------------------

func TestGatewayMergedMetrics(t *testing.T) {
	ip := newFleet(t, 2, 7)
	// Generate some traffic so shard counters exist.
	get(t, ip.Gateway, "/api/v1/stats", nil)
	get(t, ip.Gateway, "/api/v1/apps?cursor=", nil)
	resp, body := get(t, ip.Gateway, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{`node="gateway"`, `node="shard-0"`, `node="shard-1"`,
		"gateway_merged_pages_total", "store_requests_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// One TYPE header per family even with three registries merged.
	seen := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[line]++
		}
	}
	for line, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate %q in merged exposition", line)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
