package fleet

import (
	"bytes"
	"strings"
	"testing"

	"planetapps/internal/metrics"
)

// FuzzMergeExpositionPages holds the gateway's /metrics merge — bytes
// every shard sends — to its contract for any pages, well formed or not:
// every non-empty line that is not a comment comes out exactly as many
// times as it went in, and no family gets two TYPE headers. The pages
// merged are a, b and a again, so a page merged with a copy of itself is
// always among the inputs.
func FuzzMergeExpositionPages(f *testing.F) {
	page := func(node string) []byte {
		reg := metrics.NewRegistry()
		reg.SetNode(node)
		reg.Counter(`store_requests_total{route="detail"}`).Add(3)
		reg.Gauge("store_arena_slabs").Set(2)
		reg.Histogram("store_request_seconds").Observe(1500)
		var buf bytes.Buffer
		reg.WriteText(&buf)
		return buf.Bytes()
	}
	f.Add(page("shard-0"), page("shard-1"))
	f.Add(page("gateway"), []byte("# TYPE\n# TYPE short\nfoo{a=\"b\"} 1\n\n# HELP foo x\nfoo 2\r\n# TYPE foo gauge\n# TYPE foo counter\nfoo 3\n  # indented\nbar{ 4"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pages := [][]byte{a, b, a}
		want := map[string]int{}
		for _, p := range pages {
			for _, line := range strings.Split(string(p), "\n") {
				if line != "" && !strings.HasPrefix(line, "#") {
					want[line]++
				}
			}
		}
		var out bytes.Buffer
		mergeExpositionPages(&out, pages)
		typed := map[string]bool{}
		for _, line := range strings.Split(out.String(), "\n") {
			switch {
			case line == "":
			case strings.HasPrefix(line, "# TYPE "):
				name := strings.Fields(line)[2]
				if typed[name] {
					t.Fatalf("family %q has two TYPE headers:\n%s", name, out.String())
				}
				typed[name] = true
			case strings.HasPrefix(line, "#"):
				t.Fatalf("merged page carries comment %q", line)
			default:
				want[line]--
			}
		}
		for line, n := range want {
			if n != 0 {
				t.Fatalf("series line %q: %d more in than out", line, n)
			}
		}
	})
}
