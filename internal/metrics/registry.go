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

func (r *Registry) lookup(name string) (*entry, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	return e, ok
}

// Counter returns the counter registered under name, creating it if absent.
// Panics if name is registered as a different metric type.
func (r *Registry) Counter(name string) *Counter {
	if e, ok := r.lookup(name); ok {
		return mustKind(e, name).c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return mustKind(e, name).c
	}
	e := &entry{name: name, c: &Counter{}}
	r.entries[name] = e
	return e.c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if e, ok := r.lookup(name); ok {
		return mustKindG(e, name).g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return mustKindG(e, name).g
	}
	e := &entry{name: name, g: &Gauge{}}
	r.entries[name] = e
	return e.g
}

// Histogram returns the histogram registered under name, creating it if
// absent. By convention histogram observations are nanoseconds; exposition
// converts to seconds (Prometheus base unit).
func (r *Registry) Histogram(name string) *Histogram {
	if e, ok := r.lookup(name); ok {
		return mustKindH(e, name).h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return mustKindH(e, name).h
	}
	e := &entry{name: name, h: NewHistogram()}
	r.entries[name] = e
	return e.h
}

func mustKind(e *entry, name string) *entry {
	if e.c == nil {
		panic(fmt.Sprintf("metrics: %q already registered as a different type", name))
	}
	return e
}

func mustKindG(e *entry, name string) *entry {
	if e.g == nil {
		panic(fmt.Sprintf("metrics: %q already registered as a different type", name))
	}
	return e
}

func mustKindH(e *entry, name string) *entry {
	if e.h == nil {
		panic(fmt.Sprintf("metrics: %q already registered as a different type", name))
	}
	return e
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

// withLabel renders base plus the existing label set extended by one more
// label pair.
func withLabel(base, labels, extra string) string {
	if labels == "" {
		return base + "{" + extra + "}"
	}
	return base + "{" + labels + "," + extra + "}"
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

// expoEntry is one renderable exposition unit — a counter/gauge line or a
// histogram's whole summary block — with the registry's node label already
// folded into the series names. Entries are collected before anything is
// written because a family's series (`x{a="1"}`, `x{b="2"}`) need not be
// adjacent in entry-name order, and a family gets one `# TYPE` header.
type expoEntry struct {
	base  string
	typ   string
	name  string // full series name, node label applied
	lines []string
}

// collect snapshots the registry into renderable entries, in no order:
// writeEntries sorts them, and series names are unique.
func (r *Registry) collect() []expoEntry {
	r.mu.RLock()
	node := r.node
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]expoEntry, 0, len(entries))
	for _, e := range entries {
		base, labels := splitName(e.name)
		if node != "" {
			labels = joinLabels(labels, `node="`+node+`"`)
		}
		name := base
		if labels != "" {
			name = base + "{" + labels + "}"
		}
		switch {
		case e.c != nil:
			out = append(out, expoEntry{base: base, typ: "counter", name: name,
				lines: []string{fmt.Sprintf("%s %d", name, e.c.Value())}})
		case e.g != nil:
			out = append(out, expoEntry{base: base, typ: "gauge", name: name,
				lines: []string{fmt.Sprintf("%s %d", name, e.g.Value())}})
		case e.h != nil:
			s := e.h.Snapshot()
			lines := make([]string, 0, len(histQuantiles)+2)
			for _, hq := range histQuantiles {
				lines = append(lines, fmt.Sprintf("%s %g",
					withLabel(base, labels, `quantile="`+hq.label+`"`),
					float64(s.Quantile(hq.q))/1e9))
			}
			sumName, countName := base+"_sum", base+"_count"
			if labels != "" {
				sumName += "{" + labels + "}"
				countName += "{" + labels + "}"
			}
			lines = append(lines, fmt.Sprintf("%s %g", sumName, float64(s.Sum)/1e9))
			lines = append(lines, fmt.Sprintf("%s %d", countName, s.Count))
			out = append(out, expoEntry{base: base, typ: "summary", name: name, lines: lines})
		}
	}
	return out
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

// writeEntries renders entries sorted by (base, name) with one `# TYPE`
// header per family.
func writeEntries(w io.Writer, entries []expoEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].base != entries[j].base {
			return entries[i].base < entries[j].base
		}
		return entries[i].name < entries[j].name
	})
	lastBase := ""
	for _, e := range entries {
		if e.base != lastBase {
			fmt.Fprintf(w, "# TYPE %s %s\n", e.base, e.typ)
			lastBase = e.base
		}
		for _, ln := range e.lines {
			fmt.Fprintln(w, ln)
		}
	}
}

// WriteText writes the registry in the Prometheus text exposition format,
// sorted by name, with histograms rendered as summaries (quantile series
// plus _sum and _count) in seconds.
func (r *Registry) WriteText(w io.Writer) {
	writeEntries(w, r.collect())
}

// Handler returns an HTTP handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteText(w)
	})
}
