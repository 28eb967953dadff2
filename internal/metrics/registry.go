package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of metrics with Prometheus-style text
// exposition. Metric names may carry a label set in the name itself
// (`store_requests_total{route="list"}`): the registry treats the full
// string as the identity and groups `# TYPE` lines by the base name before
// the brace, so labeled families expose correctly.
//
// Lookup methods are get-or-create and safe for concurrent use; reads take
// an RLock so steady-state lookups do not serialize.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry

	// node, when non-empty, is a constant `node="..."` label appended to
	// every exposed series. Registries are already per-server instances, so
	// an in-process fleet never collides on counters — the label is what
	// keeps the series distinguishable once several nodes' pages are
	// merged onto one (the gateway's /metrics).
	node string
}

// SetNode attaches a constant node label to every series this registry
// exposes. Call once at construction, before the registry is scraped.
func (r *Registry) SetNode(node string) {
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// Node returns the registry's node label ("" when unset).
func (r *Registry) Node() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.node
}

type entry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// get returns the entry registered under name, creating it with mk if
// absent. The fast path is one RLocked map read.
func (r *Registry) get(name string, mk func() *entry) *entry {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.entries[name]; !ok {
		e = mk()
		r.entries[name] = e
	}
	return e
}

// mustBe panics when name is already registered as another metric type.
func mustBe(sameType bool, name string) {
	if !sameType {
		panic(fmt.Sprintf("metrics: %q already registered as a different type", name))
	}
}

// Counter returns the counter registered under name, creating it if absent.
// Panics if name is registered as a different metric type.
func (r *Registry) Counter(name string) *Counter {
	e := r.get(name, func() *entry { return &entry{name: name, c: &Counter{}} })
	mustBe(e.c != nil, name)
	return e.c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.get(name, func() *entry { return &entry{name: name, g: &Gauge{}} })
	mustBe(e.g != nil, name)
	return e.g
}

// Histogram returns the histogram registered under name, creating it if
// absent. By convention histogram observations are nanoseconds; exposition
// converts to seconds (Prometheus base unit).
func (r *Registry) Histogram(name string) *Histogram {
	e := r.get(name, func() *entry { return &entry{name: name, h: NewHistogram()} })
	mustBe(e.h != nil, name)
	return e.h
}

// splitName separates `base{labels}` into its parts; labels is empty when
// the name carries none.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// joinLabels concatenates two label fragments, either possibly empty.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// braced renders a label fragment as it follows a series name.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

var histQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.95", 0.95},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WriteText writes the registry in the Prometheus text exposition format:
// series sorted by (family, full name) with the node label applied, one
// `# TYPE` header per family, histograms rendered as summaries (quantile
// series plus _sum and _count) in seconds. The sort comes first because a
// family's series (`x{a="1"}`, `x{b="2"}`) need not be adjacent in
// registration-name order.
func (r *Registry) WriteText(w io.Writer) {
	type series struct {
		base, labels, name string
		e                  *entry
	}
	r.mu.RLock()
	all := make([]series, 0, len(r.entries))
	for _, e := range r.entries {
		base, labels := splitName(e.name)
		if r.node != "" {
			labels = joinLabels(labels, `node="`+r.node+`"`)
		}
		all = append(all, series{base, labels, base + braced(labels), e})
	}
	r.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].base != all[j].base {
			return all[i].base < all[j].base
		}
		return all[i].name < all[j].name
	})

	lastBase := ""
	header := func(s series, typ string) {
		if s.base != lastBase {
			fmt.Fprintf(w, "# TYPE %s %s\n", s.base, typ)
			lastBase = s.base
		}
	}
	for _, s := range all {
		switch {
		case s.e.c != nil:
			header(s, "counter")
			fmt.Fprintf(w, "%s %d\n", s.name, s.e.c.Value())
		case s.e.g != nil:
			header(s, "gauge")
			fmt.Fprintf(w, "%s %d\n", s.name, s.e.g.Value())
		case s.e.h != nil:
			header(s, "summary")
			snap := s.e.h.Snapshot()
			for _, hq := range histQuantiles {
				fmt.Fprintf(w, "%s%s %g\n", s.base,
					braced(joinLabels(s.labels, `quantile="`+hq.label+`"`)),
					float64(snap.Quantile(hq.q))/1e9)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", s.base, braced(s.labels), float64(snap.Sum)/1e9)
			fmt.Fprintf(w, "%s_count%s %d\n", s.base, braced(s.labels), snap.Count)
		}
	}
}

// Handler returns an HTTP handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteText(w)
	})
}
