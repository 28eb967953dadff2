package storeserver

import (
	"fmt"
	"net/http"

	"planetapps/internal/apiwire"
	"planetapps/internal/metrics"
)

// routeInstruments holds the per-route telemetry. Counters for the common
// status codes are pre-registered so the request path never takes the
// registry's write lock; rare codes fall back to get-or-create.
type routeInstruments struct {
	route   string
	total   *metrics.Counter
	latency *metrics.Histogram
	byCode  map[int]*metrics.Counter
}

// commonCodes are pre-registered per route.
var commonCodes = []int{
	http.StatusOK,
	http.StatusNotModified,
	http.StatusBadRequest,
	http.StatusNotFound,
}

func (s *Server) initMetrics() {
	s.reg = metrics.NewRegistry()
	if s.cfg.Node != "" {
		// Fleet members label every series with their node name so the
		// gateway's merged /metrics page keeps N shards' counters apart.
		s.reg.SetNode(s.cfg.Node)
	}
	s.total = s.reg.Counter("store_requests_total")
	s.limited = s.reg.Counter("store_rate_limited_total")
	s.inFlight = s.reg.Gauge("store_in_flight")
	s.carried = s.reg.Counter("store_respcache_carried_total")
	s.reencoded = s.reg.Counter("store_respcache_reencoded_total")
	s.buildSeconds = s.reg.Histogram("store_snapshot_build_seconds")
	s.movedDocs = s.reg.Counter("store_arena_moved_docs_total")
	s.compactions = s.reg.Counter("store_arena_compactions_total")
	for kind := apiwire.Kind(0); kind < apiwire.None; kind++ {
		route := kind.String()
		ri := &routeInstruments{
			route:   route,
			total:   s.reg.Counter(fmt.Sprintf("store_route_requests_total{route=%q}", route)),
			latency: s.reg.Histogram(fmt.Sprintf("store_request_seconds{route=%q}", route)),
			byCode:  map[int]*metrics.Counter{},
		}
		for _, code := range commonCodes {
			ri.byCode[code] = s.codeCounter(route, code)
		}
		s.routeByKind[kind] = ri
	}
	// Write-outcome counters for the POST-capable kinds, pre-registered so
	// the write path never takes the registry's write lock.
	for kind, endpoint := range map[apiwire.Kind]string{apiwire.Download: "download", apiwire.Rate: "rate", apiwire.Comments: "comment"} {
		m := make(map[string]*metrics.Counter, len(writeResults))
		for _, res := range writeResults {
			m[res] = s.reg.Counter(fmt.Sprintf("store_writes_total{endpoint=%q,result=%q}", endpoint, res))
		}
		s.writeRes[kind] = m
	}
}

// writeResults are the outcome labels of store_writes_total.
var writeResults = []string{"accepted", "deduped", "duplicate", "invalid", "backpressure"}

func (s *Server) codeCounter(route string, code int) *metrics.Counter {
	return s.reg.Counter(fmt.Sprintf("store_responses_total{route=%q,code=\"%d\"}", route, code))
}

// statusWriter captures the response status for accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Registry exposes the server's metrics registry, served at /metrics by
// Handler; callers (appstored's shutdown stats line, tests) may also read
// it directly.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// RequestsServed returns the number of API requests that passed the rate
// limiter.
func (s *Server) RequestsServed() int64 { return s.total.Value() }

// RateLimited returns the number of requests rejected with 429.
func (s *Server) RateLimited() int64 { return s.limited.Value() }

// LimiterBuckets returns the number of per-client rate-limit buckets
// currently tracked, 0 when rate limiting is off.
func (s *Server) LimiterBuckets() int {
	if s.lim == nil {
		return 0
	}
	return s.lim.size()
}

// FaultsInjected returns the number of faults the SetChaos injector has
// fired, 0 when none is installed.
func (s *Server) FaultsInjected() int64 {
	if s.chaos == nil {
		return 0
	}
	return s.chaos.InjectedTotal()
}
