package main

import (
	"bufio"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A tier is one boundary the harness records spans at, ordered from the
// client inwards. The odd tiers are hops: the outbound RoundTripper of
// the tier before them, whose self time is what net/http and loopback
// add between two handlers.
type tier uint8

const (
	tierClient       tier = iota // the harness's own request, send to last body byte
	tierEdge                     // edgecache.Server.Handler()
	tierEdgeOrigin               // edgecache.Config.OriginTransport
	tierGateway                  // fleet.Gateway
	tierGatewayShard             // fleet.ShardClient.HTTP.Transport
	tierStore                    // fleet.ShardNode / storeserver.Server.Handler()
	numTiers
)

// tierMetric names each tier's self time the way the per-layer metrics do.
var tierMetric = [numTiers]string{
	"hop.client", "edgecache.self", "hop.edge_origin",
	"fleet.gateway_self", "hop.gateway_shard", "storeserver.self",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. req is the client request the span belongs to; shard
// is the shard index for the two innermost tiers of a fleet, else -1.
type span struct {
	req        int64
	tier       tier
	shard      int8
	start, end int64
}

// tracer records spans from outside the tiers: the rig wraps every
// tier's http.Handler and outbound http.RoundTripper with it. It is
// switched on only for the traced pass, which has a single client, so at
// any instant at most one client request is in flight and a span belongs
// to whichever request the client last announced in cur.
type tracer struct {
	on    atomic.Bool
	seq   atomic.Int64 // request ids handed out
	cur   atomic.Int64 // the request now in flight
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and empties the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// controlPlane reports the paths the operator goroutine's day-rolls
// travel; they are not client requests and record no spans.
func controlPlane(path string) bool { return strings.HasPrefix(path, "/admin/") }

// handler wraps h so each request it serves is a span of tier tr.
func (t *tracer) handler(tr tier, shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || controlPlane(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		req, start := t.cur.Load(), t.now()
		h.ServeHTTP(w, r)
		t.add(span{req: req, tier: tr, shard: int8(shard), start: start, end: t.now()})
	})
}

// tracedTransport makes each round trip through next a span of tier tr,
// ending when the response headers are in: what the caller then does
// with the body (the gateway's JSON decode of a shard page, above all)
// is the caller's self time, not the hop's. calls counts round trips for
// the listing route, traced or not.
type tracedTransport struct {
	t     *tracer
	tier  tier
	shard int
	next  http.RoundTripper
	calls *atomic.Int64
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tt.calls != nil && r.URL.Path == "/api/v1/apps" {
		tt.calls.Add(1)
	}
	if !tt.t.on.Load() || controlPlane(r.URL.Path) {
		return tt.next.RoundTrip(r)
	}
	req, start := tt.t.cur.Load(), tt.t.now()
	resp, err := tt.next.RoundTrip(r)
	tt.t.add(span{req: req, tier: tt.tier, shard: int8(tt.shard), start: start, end: tt.t.now()})
	return resp, err
}

// selfTimes splits one request's client span among the tiers. Spans
// nest, so along one chain of calls every instant goes to the deepest
// tier with a span open at that instant: a tier's self time is its span
// minus what its child covers.
//
// The gateway's scatter is not one chain but one lane per shard, open at
// once. There the gateway's self time is its span minus the mean lane,
// not minus the union of the lanes: while one lane's round trip is still
// out, the lanes that have returned are running gateway code (decoding
// their pages), and on a box with fewer cores than lanes that overlap is
// most of the scatter. Billing every instant to the deepest open span
// would charge that decode to the hop. Within a lane the split is the
// chain rule again (round trip minus the shard's handler), and the hop
// and store tiers get the mean over lanes, so the tiers still add up to
// the time the client waited. spans must all belong to one request and
// include its client span.
func selfTimes(spans []span) [numTiers]int64 {
	var self [numTiers]int64
	var client *span
	lanes := map[int8][]span{}
	var trunk []span
	for i, s := range spans {
		switch {
		case s.tier == tierClient:
			client = &spans[i]
			trunk = append(trunk, s)
		case s.shard >= 0:
			lanes[s.shard] = append(lanes[s.shard], s)
		default:
			trunk = append(trunk, s)
		}
	}
	if client == nil {
		return self
	}
	self = chain(trunk, client.start, client.end)
	if len(lanes) == 0 {
		return self
	}
	var inLanes int64
	for _, lane := range lanes {
		ls := chain(lane, client.start, client.end)
		for t, ns := range ls {
			self[t] += ns / int64(len(lanes))
			inLanes += ns / int64(len(lanes))
		}
	}
	// The lanes ran inside the gateway's span (the only tier that fans out).
	self[tierGateway] -= inLanes
	if self[tierGateway] < 0 {
		self[tierClient] += self[tierGateway]
		self[tierGateway] = 0
	}
	return self
}

// chain gives every instant of [lo, hi] covered by some span to the
// deepest tier with a span open at that instant.
func chain(spans []span, lo, hi int64) [numTiers]int64 {
	var self [numTiers]int64
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := max(cuts[i], lo), min(cuts[i+1], hi)
		if b <= a {
			continue
		}
		deepest := -1
		for _, s := range spans {
			if s.start <= a && s.end >= b && int(s.tier) > deepest {
				deepest = int(s.tier)
			}
		}
		if deepest >= 0 {
			self[deepest] += b - a
		}
	}
	return self
}

// attribution is the traced pass summed per request class.
type attribution struct {
	requests [numClasses]int64
	clientNS [numClasses]int64
	selfNS   [numClasses][numTiers]int64
}

// attribute groups spans by request and sums their self times by the
// class the traced client issued each request as.
func attribute(spans []span, classOf map[int64]opClass) attribution {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].req < spans[j].req })
	var a attribution
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		if c, ok := classOf[spans[lo].req]; ok {
			self := selfTimes(spans[lo:hi])
			a.requests[c]++
			for t, ns := range self {
				a.selfNS[c][t] += ns
				a.clientNS[c] += ns
			}
		}
		lo = hi
	}
	return a
}

// parentOf finds the span that caused s: the innermost span of a
// shallower tier, in the same request, that was open when s started
// (and, for a shard's handler, the round trip to that same shard).
func parentOf(s span, group []span) int {
	best := -1
	for i, p := range group {
		if p.tier >= s.tier || p.start > s.start || p.end < s.start {
			continue
		}
		if p.tier == tierGatewayShard && p.shard != s.shard {
			continue
		}
		if best < 0 || p.tier > group[best].tier || (p.tier == group[best].tier && p.start > group[best].start) {
			best = i
		}
	}
	return best
}

// writeSpans writes one JSON object per span: name, request id, start
// and end, and the id of the span that caused it (-1 for a client span).
// spans must be sorted by request, as attribute leaves them.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		group := spans[lo:hi]
		for i, s := range group {
			parent := -1
			if p := parentOf(s, group); p >= 0 {
				parent = lo + p
			}
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, int64(lo+i), 10)
			line = append(line, `,"name":"`...)
			line = append(line, tierMetric[s.tier]...)
			if s.shard >= 0 {
				line = append(line, '.')
				line = strconv.AppendInt(line, int64(s.shard), 10)
			}
			line = append(line, `","req":`...)
			line = strconv.AppendInt(line, s.req, 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(parent), 10)
			line = append(line, "}\n"...)
			w.Write(line) //nolint:errcheck // surfaced by Flush
		}
		lo = hi
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
