package resilient

import (
	"context"
	"net/http"
	"net/url"
	"sync"
	"time"

	"planetapps/internal/proxy"
)

// Per-node health scoring's fixed tuning.
const (
	// proxyFailThreshold consecutive transport failures demote a node.
	proxyFailThreshold = 3
	// proxyCooldown is how long a demoted node sits out before it is
	// probed again.
	proxyCooldown = 2 * time.Second
)

// ProxyHealth wraps a proxy.Pool with per-node health scoring: the
// selector round-robins across healthy nodes, demotes a node after
// proxyFailThreshold consecutive transport failures, and re-probes demoted
// nodes after proxyCooldown — the fail-over the paper's crawlers needed
// when individual PlanetLab nodes died or were blacklisted mid-crawl.
type ProxyHealth struct {
	pool  *proxy.Pool
	clock Clock

	mu        sync.Mutex
	next      int
	nodes     []nodeHealth
	demotions int64
}

type nodeHealth struct {
	fails       int
	demotedTill time.Time
}

// NewProxyHealth builds a health-scored selector over pool. A nil clock
// uses the wall clock.
func NewProxyHealth(pool *proxy.Pool, clock Clock) *ProxyHealth {
	if clock == nil {
		clock = realClock{}
	}
	return &ProxyHealth{pool: pool, clock: clock, nodes: make([]nodeHealth, pool.Size())}
}

// Demotions returns how many times nodes have been demoted.
func (ph *ProxyHealth) Demotions() int64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.demotions
}

// pick selects the next node: round-robin over healthy nodes, admitting a
// demoted node again once its cooldown lapses (as a probe). When every
// node is demoted the one whose cooldown expires soonest is used — the
// crawl keeps trying rather than stalling.
func (ph *ProxyHealth) pick() int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	n := len(ph.nodes)
	now := ph.clock.Now()
	bestIdx, bestWait := -1, time.Duration(1<<62)
	for off := 0; off < n; off++ {
		i := (ph.next + off) % n
		nh := &ph.nodes[i]
		if nh.demotedTill.IsZero() || !now.Before(nh.demotedTill) {
			nh.demotedTill = time.Time{} // a demoted node's probe re-admission
			ph.next = (i + 1) % n
			return i
		}
		if wait := nh.demotedTill.Sub(now); wait < bestWait {
			bestWait, bestIdx = wait, i
		}
	}
	ph.next = (bestIdx + 1) % n
	return bestIdx
}

// Report records the outcome of a request routed through node i.
// Only transport-level failures (the proxy itself unreachable or
// resetting) implicate the node; an HTTP error relayed from the origin is
// the origin's problem.
func (ph *ProxyHealth) Report(i int, transportOK bool) {
	if i < 0 || i >= len(ph.nodes) {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	nh := &ph.nodes[i]
	if transportOK {
		nh.fails = 0
		nh.demotedTill = time.Time{}
		return
	}
	nh.fails++
	if nh.fails >= proxyFailThreshold {
		nh.fails = 0
		nh.demotedTill = ph.clock.Now().Add(proxyCooldown)
		ph.demotions++
	}
}

// proxyChoiceKey carries the per-request slot the ProxyFunc records its
// selection into, so the client can attribute the outcome to the node.
type proxyChoiceKey struct{}

type proxyChoice struct {
	mu  sync.Mutex
	idx int
}

// withChoice returns a context carrying a fresh selection slot.
func withChoice(ctx context.Context) (context.Context, *proxyChoice) {
	pc := &proxyChoice{idx: -1}
	return context.WithValue(ctx, proxyChoiceKey{}, pc), pc
}

func (pc *proxyChoice) get() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.idx
}

// ProxyFunc adapts the health-scored selector to http.Transport.Proxy.
func (ph *ProxyHealth) ProxyFunc() func(*http.Request) (*url.URL, error) {
	return func(r *http.Request) (*url.URL, error) {
		i := ph.pick()
		if pc, ok := r.Context().Value(proxyChoiceKey{}).(*proxyChoice); ok {
			pc.mu.Lock()
			pc.idx = i
			pc.mu.Unlock()
		}
		return ph.pool.At(i), nil
	}
}
