package metrics

import (
	"strings"
	"testing"
)

// TestNodeLabelExposition checks that SetNode folds a constant node label
// into every exposed series, including labeled families and histogram
// summary lines.
func TestNodeLabelExposition(t *testing.T) {
	r := NewRegistry()
	r.SetNode("shard-2")
	r.Counter("reqs_total").Add(3)
	r.Counter(`reqs_total{route="list"}`).Add(5)
	r.Gauge("in_flight").Set(1)
	r.Histogram("lat_seconds").Observe(2e9)

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`reqs_total{node="shard-2"} 3`,
		`reqs_total{route="list",node="shard-2"} 5`,
		`in_flight{node="shard-2"} 1`,
		`lat_seconds{node="shard-2",quantile="0.5"}`,
		`lat_seconds_sum{node="shard-2"} 2`,
		`lat_seconds_count{node="shard-2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if r.Node() != "shard-2" {
		t.Fatalf("Node() = %q", r.Node())
	}
}
