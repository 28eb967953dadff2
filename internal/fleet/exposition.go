package fleet

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strings"
)

// serveMetrics serves the fleet-wide exposition: the gateway's own
// routing/merge counters plus every shard's node-labelled series, one
// page, one TYPE header per family. Every shard's page is read with
// fetchShard through its ShardClient — a function call in process, a
// scrape across a network — so the shard's own /metrics handler runs and
// refreshes the gauges it computes per scrape (arena, GC); a shard that
// does not answer is left out.
func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pages := make([][]byte, 1, len(g.cfg.Shards)+1)
	var own bytes.Buffer
	g.reg.WriteText(&own)
	pages[0] = own.Bytes()
	for i := range g.cfg.Shards {
		buf, _, err := g.fetchShard(r.Context(), i, "/metrics", maxMetricsBody)
		if err != nil {
			continue // a dead shard must not take the whole exposition down
		}
		defer listBufs.Put(buf) // the page is merged after the loop
		pages = append(pages, buf.Bytes())
	}
	mergeExpositionPages(w, pages)
}

// mergeExpositionPages regroups several exposition pages into one: every
// family appears once, with a single TYPE header, its series from all
// pages concatenated. Families are emitted in sorted order.
func mergeExpositionPages(w io.Writer, pages [][]byte) {
	type family struct {
		typ   string
		lines []string
	}
	fams := map[string]*family{}
	var order []string
	var current *family
	for _, page := range pages {
		current = nil
		for _, line := range strings.Split(string(page), "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				parts := strings.Fields(line)
				if len(parts) < 4 {
					current = nil
					continue
				}
				name, typ := parts[2], parts[3]
				f, ok := fams[name]
				if !ok {
					f = &family{typ: typ}
					fams[name] = f
					order = append(order, name)
				}
				current = f
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			if current == nil {
				// An untyped series: family is its bare name.
				name := line
				if i := strings.IndexAny(name, "{ "); i >= 0 {
					name = name[:i]
				}
				f, ok := fams[name]
				if !ok {
					f = &family{}
					fams[name] = f
					order = append(order, name)
				}
				f.lines = append(f.lines, line)
				continue
			}
			current.lines = append(current.lines, line)
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if f.typ != "" {
			io.WriteString(w, "# TYPE "+name+" "+f.typ+"\n") //nolint:errcheck
		}
		for _, line := range f.lines {
			io.WriteString(w, line+"\n") //nolint:errcheck
		}
	}
}
