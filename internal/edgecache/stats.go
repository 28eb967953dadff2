package edgecache

import (
	"planetapps/internal/metrics"
)

// instruments are the edge counters, mirrored into the registry served at
// /metrics.
type instruments struct {
	requests    *metrics.Counter
	hits        *metrics.Counter
	misses      *metrics.Counter
	revalidated *metrics.Counter
	staleServed *metrics.Counter
	coalesced   *metrics.Counter
	client304   *metrics.Counter
	passthrough *metrics.Counter
	evictions   *metrics.Counter
	errors      *metrics.Counter

	originReqs  *metrics.Counter
	originBytes *metrics.Counter
	servedBytes *metrics.Counter

	entriesG *metrics.Gauge
	bytesG   *metrics.Gauge
}

func (s *Server) initInstruments() {
	r := s.reg
	s.st = instruments{
		requests:    r.Counter("edge_requests_total"),
		hits:        r.Counter("edge_hits_total"),
		misses:      r.Counter("edge_misses_total"),
		revalidated: r.Counter("edge_revalidated_total"),
		staleServed: r.Counter("edge_stale_served_total"),
		coalesced:   r.Counter("edge_coalesced_total"),
		client304:   r.Counter("edge_client_304_total"),
		passthrough: r.Counter("edge_passthrough_total"),
		evictions:   r.Counter("edge_evictions_total"),
		errors:      r.Counter("edge_errors_total"),
		originReqs:  r.Counter("edge_origin_requests_total"),
		originBytes: r.Counter("edge_origin_bytes_total"),
		servedBytes: r.Counter("edge_served_bytes_total"),
		entriesG:    r.Gauge("edge_cache_entries"),
		bytesG:      r.Gauge("edge_cache_bytes"),
	}
}

// Stats is a point-in-time summary of the edge's serving activity.
type Stats struct {
	Requests    int64 // client requests (excluding /metrics)
	Hits        int64 // served fresh from cache, no origin I/O
	Misses      int64 // filled from an origin 200
	Revalidated int64 // refreshed by an origin 304
	StaleServed int64 // origin unreachable, stale copy served
	Coalesced   int64 // followers that shared a single-flight fetch
	Client304   int64 // client If-None-Match answered by the edge
	Passthrough int64 // relayed uncached (APKs, 4xx)
	Evictions   int64 // entries evicted by the policy
	Errors      int64 // 502s: origin down with nothing stale to serve

	OriginRequests int64 // logical origin fetches (retries not counted)
	OriginBytes    int64 // body bytes fetched from the origin (200s)
	ServedBytes    int64 // body bytes written to clients

	Entries int   // resident documents
	Bytes   int64 // resident body bytes
	Policy  string
}

// Stats snapshots the counters plus the resident cache size.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	entries := s.pol.Len()
	bytes := s.pol.Cost()
	s.mu.Unlock()
	s.st.entriesG.Set(int64(entries))
	s.st.bytesG.Set(bytes)
	return Stats{
		Requests:       s.st.requests.Value(),
		Hits:           s.st.hits.Value(),
		Misses:         s.st.misses.Value(),
		Revalidated:    s.st.revalidated.Value(),
		StaleServed:    s.st.staleServed.Value(),
		Coalesced:      s.st.coalesced.Value(),
		Client304:      s.st.client304.Value(),
		Passthrough:    s.st.passthrough.Value(),
		Evictions:      s.st.evictions.Value(),
		Errors:         s.st.errors.Value(),
		OriginRequests: s.st.originReqs.Value(),
		OriginBytes:    s.st.originBytes.Value(),
		ServedBytes:    s.st.servedBytes.Value(),
		Entries:        entries,
		Bytes:          bytes,
		Policy:         s.pol.Name(),
	}
}

// HitRate is the percentage of client requests served fresh from cache
// with no origin round-trip at all.
func (st Stats) HitRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return 100 * float64(st.Hits) / float64(st.Requests)
}

// CacheServeRate is the percentage of client requests answered from the
// edge's store — fresh hits, 304-refreshed revalidations, and stale
// serves — rather than by relaying an origin body.
func (st Stats) CacheServeRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return 100 * float64(st.Hits+st.Revalidated+st.StaleServed) / float64(st.Requests)
}

// OriginOffload is the percentage of client requests that caused no
// origin fetch.
func (st Stats) OriginOffload() float64 {
	if st.Requests == 0 {
		return 0
	}
	off := 100 * (1 - float64(st.OriginRequests)/float64(st.Requests))
	if off < 0 {
		off = 0
	}
	return off
}

// ByteOffload compares bytes served to clients against bytes pulled from
// the origin: 90 means the origin shipped a tenth of what clients read.
func (st Stats) ByteOffload() float64 {
	if st.ServedBytes == 0 {
		return 0
	}
	off := 100 * (1 - float64(st.OriginBytes)/float64(st.ServedBytes))
	if off < 0 {
		off = 0
	}
	return off
}
