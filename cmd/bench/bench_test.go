package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"planetapps/internal/model"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {1, 10}} {
		got, err := percentile(vs, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..1000 = %d, %v; want %d", tc.p, got, err, tc.want)
		}
	}
	// p99 of 1000 samples leaves exactly ten beyond the rank; of 999, nine.
	if _, err := percentile(vs[:999], 99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if _, err := percentile(vs[:9], 50); err != nil {
		t.Errorf("p50 of 9 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples was not refused")
	}
}

func TestSelfTimesChain(t *testing.T) {
	// client ⊃ edge ⊃ origin hop ⊃ gateway ⊃ shard hop ⊃ store, each 10 ns
	// inside its parent on both sides.
	var spans []span
	for tr := tierClient; tr < numTiers; tr++ {
		shard := int8(-1)
		if tr >= tierGatewayShard {
			shard = 2
		}
		spans = append(spans, span{req: 1, tier: tr, shard: shard, start: int64(tr) * 10, end: 200 - int64(tr)*10})
	}
	self := selfTimes(spans)
	var sum int64
	for tr, ns := range self {
		want := int64(20)
		if tier(tr) == tierStore {
			want = 100
		}
		if ns != want {
			t.Errorf("%s self = %d, want %d", tierMetric[tr], ns, want)
		}
		sum += ns
	}
	if sum != 200 {
		t.Errorf("tiers add up to %d, the client waited 200", sum)
	}
}

func TestSelfTimesScatter(t *testing.T) {
	// A gateway span 0..1000 scatters to four shards at once. Every round
	// trip starts at 100; they return at 300, 400, 500 and 600, and each
	// shard's handler takes the middle 100 of its round trip. The mean lane
	// is (200+300+400+500)/4 = 350 long, 100 of it in the store, so the
	// gateway's own time is 1000-350 even though some lane is open for 500.
	spans := []span{
		{req: 7, tier: tierClient, shard: -1, start: 0, end: 1100},
		{req: 7, tier: tierGateway, shard: -1, start: 50, end: 1050},
	}
	for k := 0; k < 4; k++ {
		end := int64(300 + 100*k)
		mid := (100 + end) / 2
		spans = append(spans,
			span{req: 7, tier: tierGatewayShard, shard: int8(k), start: 100, end: end},
			span{req: 7, tier: tierStore, shard: int8(k), start: mid - 50, end: mid + 50})
	}
	self := selfTimes(spans)
	want := [numTiers]int64{tierClient: 100, tierGateway: 650, tierGatewayShard: 250, tierStore: 100}
	if self != want {
		t.Errorf("self times %v, want %v", self, want)
	}
	if p := parentOf(spans[3], spans); p < 0 || spans[p].tier != tierGatewayShard || spans[p].shard != 0 {
		t.Errorf("shard 0's handler has parent %d, want its own round trip", p)
	}
	if p := parentOf(spans[2], spans); p != 1 {
		t.Errorf("a round trip has parent %d, want the gateway span", p)
	}
}

func TestOpListDeterminism(t *testing.T) {
	a, err := genEvents(2000, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genEvents(2000, 5000, 1) //nolint:errcheck // same arguments as above
	c, _ := genEvents(2000, 5000, 2) //nolint:errcheck
	if len(a) != 5000 || digestEvents(a) != digestEvents(b) {
		t.Error("the same seed gave two op lists")
	}
	if digestEvents(a) == digestEvents(c) {
		t.Error("seed 2 gave seed 1's op list")
	}
	split := splitEvents(a)
	for i, e := range a {
		if split[i%numClients][i/numClients] != e {
			t.Fatalf("event %d is not client %d's event %d", i, i%numClients, i/numClients)
		}
	}
	seen := map[model.Event]bool{}
	writers := 0
	for _, e := range a {
		if seen[e] {
			t.Fatalf("event %v repeats: a write derived from it would be refused as a duplicate", e)
		}
		seen[e] = true
		if funnelFor(1, e).download {
			writers++
		}
	}
	if share := float64(writers) / float64(len(a)); share < 0.17 || share > 0.23 {
		t.Errorf("the write funnel selected %.3f of events, want about %.2f", share, writeMix)
	}
}

// fakeStore answers detail GETs with a document naming the app asked
// for, whatever else the test makes it do first.
func fakeStore(t *testing.T, before func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if before != nil && before(w, r) {
			return
		}
		id := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		w.Header().Set("Etag", `"d`+id+`"`)
		fmt.Fprintf(w, `{"id":%s,"downloads":1}`, id)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestChecksTrip(t *testing.T) {
	if _, err := checkDetail([]byte(`{"id":7,"downloads":3}`), 7); err != nil {
		t.Errorf("a good detail was refused: %v", err)
	}
	for name, body := range map[string]string{
		"truncated":   `{"id":7,"downl`,
		"other app":   `{"id":8,"downloads":3}`,
		"no id":       `{"downloads":3}`,
		"zeroed span": "{\"id\":7,\x00\x00\x00\x00\"downloads\":3}",
	} {
		if _, err := checkDetail([]byte(body), 7); err == nil {
			t.Errorf("detail check passed a body that is %s", name)
		}
	}
	if err := checkAck([]byte(`{"accepted":true,"seq":4,"day":1}`)); err != nil {
		t.Errorf("a good ack was refused: %v", err)
	}
	for _, body := range []string{`{"accepted":false,"seq":4,"day":1}`, `{"seq":4,"day":1}`, ``} {
		if err := checkAck([]byte(body)); err == nil {
			t.Errorf("ack check passed a dropped ack %q", body)
		}
	}
	if _, _, err := checkPage([]byte(`{"apps":[{"id":1},{"id":3},{"id":2}],"total":3}`)); err == nil {
		t.Error("page check passed descending ids")
	}
	if _, next, err := checkPage([]byte(`{"apps":[{"id":1},{"id":2}],"next_cursor":"YTM","total":9}`)); err != nil || next != "YTM" {
		t.Errorf("a good page gave next %q, %v", next, err)
	}
	if next, err := scanNextCursor([]byte(`{"apps":[{"id":1}],"next_cursor":"YTM","total":9}` + "\n")); err != nil || next != "YTM" {
		t.Errorf("scanNextCursor = %q, %v", next, err)
	}
	if _, err := scanNextCursor([]byte(`{"apps":[{"id":1}],"next_cur`)); err == nil {
		t.Error("scanNextCursor passed a truncated page")
	}
	k := kept{app: 5, etag: `"d5"`, encoding: "gzip", body: []byte("abc")}
	if err := sameResponse(k, `"d5"`, "gzip", []byte("abc")); err != nil {
		t.Errorf("identical responses differ: %v", err)
	}
	if sameResponse(k, `"d5"`, "gzip", []byte("abd")) == nil || sameResponse(k, `"d6"`, "gzip", []byte("abc")) == nil {
		t.Error("the reference comparison passed a changed byte or a changed ETag")
	}
}

func TestClientChecksTrip(t *testing.T) {
	mode := ""
	srv := fakeStore(t, func(w http.ResponseWriter, r *http.Request) bool {
		switch mode {
		case "stale day":
			w.Header().Set("X-Store-Day", "4")
		case "corrupt gzip":
			w.Header().Set("Content-Encoding", "gzip")
			w.Header().Set("Etag", `"x"`)
			w.Write([]byte("\x1f\x8b\x08 not a gzip stream")) //nolint:errcheck
			return true
		case "5xx":
			http.Error(w, "boom", http.StatusServiceUnavailable)
			return true
		case "no etag":
			fmt.Fprint(w, `{"id":3,"downloads":1}`)
			return true
		}
		return false
	})
	c := newClient(srv.URL)
	defer c.close()
	var committed atomic.Int64
	c.committed = &committed

	if c.do(detailReq(1, 3, true)) == nil {
		t.Fatalf("a good exchange failed: %v", c.firstErr)
	}
	committed.Store(5)
	mode = "stale day"
	if c.do(detailReq(1, 3, true)) != nil {
		t.Error("a day-4 answer after day 5 was committed passed the mixed-epoch check")
	}
	committed.Store(4)
	if c.do(detailReq(1, 3, true)) == nil {
		t.Error("a day-4 answer with day 4 committed was refused")
	}
	for _, mode = range []string{"corrupt gzip", "5xx", "no etag"} {
		before := c.failed
		if c.do(detailReq(1, 3, true)) != nil || c.failed != before+1 {
			t.Errorf("%s: the exchange was not counted as failed", mode)
		}
	}
	if c.attempted != 6 || c.failed != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", c.attempted, c.failed)
	}
}

// declaredMetrics reads the metric names BENCHMARK.json declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload in both trace modes on the 2,000-app rig:
// the whole harness — rig, clients, checks, spans, counters, direct calls
// — with nothing measured.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, 1, 10, trace, true, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if raceDetector {
				continue
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks %v", w.name, trace, res.CheckFailures)
			}
			if !res.Smoke || res.Seconds != 1 {
				t.Errorf("%s: a smoke run is marked smoke=%v seconds=%g", w.name, res.Smoke, res.Seconds)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s [%s] declared, got %+v (present %v)", w.name, trace, name, unit, got, ok)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s reported but not declared", w.name, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %g", w.name, name, m.Value)
					}
				}
				continue
			}
			// The traced pass must account for the request: the tiers'
			// shares add up to the whole of what the client waited.
			var sum float64
			for name, m := range res.Metrics {
				if strings.Contains(name, "_share.") {
					sum += m.Value
				}
			}
			if sum < 0.95 || sum > 1.05 {
				t.Errorf("%s: the tiers' self-time shares add up to %.3f", w.name, sum)
			}
			if fi, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no spans written: %v", w.name, err)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[
		{"name":"rps","unit":"1/s","better":"higher","bound":0.1},
		{"name":"detail_p50_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, smoke bool, failed int64, rps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range rps {
			res := newResult("browse-edge", 1, 10, false, smoke)
			res.Attempted, res.Failed = 1000, failed
			res.Metrics["rps"] = metric{v, "1/s"}
			res.Metrics["detail_p50_us"] = metric{40, "us"}
			if err := res.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", false, 0, 1000, 1010, 990)
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"within the bound", write("b.jsonl", false, 0, 950, 960, 940), 0},
		{"slower than the bound", write("c.jsonl", false, 0, 850, 890, 860), 1},
		{"more failures", write("d.jsonl", false, 3, 1000, 1000, 1000), 1},
		{"smoke", write("e.jsonl", true, 0, 1000), 2},
	} {
		var out bytes.Buffer
		if got := compareMain([]string{"-bounds", bounds, base, tc.path}, &out); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestForwardedFor(t *testing.T) {
	if got := forwardedFor(0x010203); got != "10.1.2.3" {
		t.Errorf("forwardedFor = %q", got)
	}
}
