// Package cache simulates an app-delivery cache in front of an appstore,
// the implication study of the paper's §7 (Figure 19): a fixed-capacity
// cache of app packages serving a stream of download requests, measured by
// hit ratio under different workload models and replacement policies.
//
// Beyond the paper's LRU study, the package implements FIFO, LFU, 2Q, and
// a category-aware partitioned-LFU policy (the "new replacement policies"
// the paper calls for), which allocates capacity to categories by their
// observed traffic share.
//
// Residency is one thing: a single ledger owns capacity, cost accounting,
// admission, trimming and the eviction hook, and a policy is only an
// ordering over the ledger's entries — where a hit moves one, where a new
// one goes, which one leaves next. Capacity is in abstract cost units. The
// offline simulators access entries at cost 1, so capacity means "number
// of apps"; the live edge tier (internal/edgecache) accesses entries at
// their encoded byte size, so the same policies size a cache in bytes.
//
// Policies are generic over the key their caller holds: the simulators
// instantiate them at int32 app ids, the edge at its request key, the
// crawler at URLs — nobody interns keys to fit the cache.
package cache

import (
	"container/list"
	"fmt"
)

// Policy is a cache replacement policy over keys of type K. Implementations
// are single-goroutine simulation structures, not concurrent caches; a
// concurrent caller (the edge tier) serializes access externally.
type Policy[K comparable] interface {
	// Name identifies the policy in reports.
	Name() string
	// Access records a unit-cost request for k and reports whether it
	// hit. Equivalent to AccessCost(k, 1). On a miss the key is admitted,
	// evicting per policy when full.
	Access(k K) bool
	// AccessCost records a request for k with the given residency cost
	// (bytes for the edge tier, 1 for the simulators) and reports whether
	// it hit. On a miss the key is admitted — evicting entries per policy
	// until it fits — unless cost alone exceeds the total capacity, in
	// which case nothing is cached. A hit whose cost differs from the
	// resident cost re-accounts the entry and trims overflow, sparing k
	// itself until it is the only entry left. cost < 1 is treated as 1.
	AccessCost(k K, cost int64) bool
	// Len returns the number of cached keys.
	Len() int
	// Cost returns the summed residency cost of the cached keys. Equals
	// Len() when every access was unit-cost.
	Cost() int64
	// Contains reports whether the key is currently cached.
	Contains(k K) bool
	// OnEvict registers fn to be called with each key the policy removes to
	// make room (not for keys merely rejected on admission). At most one
	// hook is active; nil clears it.
	OnEvict(fn func(k K))
	// Warm preloads the cache with keys given in order of descending
	// priority: the first min(capacity, len(keys)) are admitted at unit
	// cost, keys[0] as the most recently used. The paper initializes caches
	// with the most popular apps.
	Warm(keys []K)
}

// entry is one resident key. The ledger owns key and cost; the rest is
// scratch space for the ordering the entry lives in.
type entry[K comparable] struct {
	key        K
	cost       int64
	prev, next *entry[K]     // neighbours in the ordering's chain
	tag        int32         // 2Q: which queue; CategoryAware: the category
	freq       int64         // CategoryAware: hit count
	lastUse    int64         // CategoryAware: sequence number of the last hit
	bucket     *list.Element // LFU: the frequency bucket holding the entry
}

// chain is an intrusive doubly linked list of entries, front = newest. The
// zero value is an empty chain.
type chain[K comparable] struct{ front, back *entry[K] }

func (c *chain[K]) pushFront(e *entry[K]) {
	e.prev, e.next = nil, c.front
	if c.front != nil {
		c.front.prev = e
	} else {
		c.back = e
	}
	c.front = e
}

func (c *chain[K]) remove(e *entry[K]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *chain[K]) moveToFront(e *entry[K]) {
	if c.front != e {
		c.remove(e)
		c.pushFront(e)
	}
}

// backExcept returns the back-most entry other than spare, or nil.
func (c *chain[K]) backExcept(spare *entry[K]) *entry[K] {
	for e := c.back; e != nil; e = e.prev {
		if e != spare {
			return e
		}
	}
	return nil
}

// order is all a replacement policy decides. The ledger calls it with
// entries it owns; an order never changes residency itself.
type order[K comparable] interface {
	// request sees every access before the ledger acts on it: e is the
	// resident entry, still at its old cost, or nil on a miss.
	request(k K, e *entry[K], cost int64)
	// insert places a newly admitted entry.
	insert(e *entry[K])
	// victim names the entry to leave next, never spare — the entry just
	// touched or, when admitting, just inserted; nil when spare is alone.
	victim(spare *entry[K], admitting bool) *entry[K]
	// remove forgets an entry the ledger is evicting.
	remove(e *entry[K])
}

// ledger is the residency bookkeeping every policy shares: capacity, cost
// clamping, oversize rejection, re-cost and trim, and the eviction hook.
type ledger[K comparable] struct {
	name    string
	cap     int64
	used    int64
	items   map[K]*entry[K]
	ord     order[K]
	onEvict func(K)
}

// setup readies the ledger for a policy that needs at least floor capacity.
func (l *ledger[K]) setup(name string, capacity, floor int, ord order[K]) {
	if capacity < floor {
		panic(fmt.Sprintf("cache: %s capacity %d", name, capacity))
	}
	// At unit cost the capacity is an exact entry count, and the map is
	// made for it. A capacity too large to be one is a byte budget (the
	// edge's tens of MiB, holding a few thousand documents): any hint
	// derived from it is slots that are never filled — capped at 65,536 it
	// was 6.8 MB of an edge's heap — so that map grows with what it holds.
	hint := 0
	if capacity <= 1<<16 {
		hint = capacity
	}
	*l = ledger[K]{name: name, cap: int64(capacity), items: make(map[K]*entry[K], hint), ord: ord}
}

// Name implements Policy.
func (l *ledger[K]) Name() string { return l.name }

// Len implements Policy.
func (l *ledger[K]) Len() int { return len(l.items) }

// Cost implements Policy.
func (l *ledger[K]) Cost() int64 { return l.used }

// Contains implements Policy.
func (l *ledger[K]) Contains(k K) bool { _, ok := l.items[k]; return ok }

// OnEvict implements Policy.
func (l *ledger[K]) OnEvict(fn func(K)) { l.onEvict = fn }

// Access implements Policy.
func (l *ledger[K]) Access(k K) bool { return l.AccessCost(k, 1) }

// AccessCost implements Policy.
func (l *ledger[K]) AccessCost(k K, cost int64) bool {
	if cost < 1 {
		cost = 1
	}
	e, hit := l.items[k]
	l.ord.request(k, e, cost)
	switch {
	case hit && e.cost == cost:
		return true
	case hit:
		l.used += cost - e.cost
		e.cost = cost
	case cost > l.cap:
		return false // larger than the whole cache: not admitted
	default:
		e = &entry[K]{key: k, cost: cost}
		l.items[k] = e
		l.used += cost
		l.ord.insert(e)
	}
	// Restore the capacity invariant around e. An admitted entry fits on
	// its own, so only a resident one that outgrew the whole cache can end
	// up evicting itself.
	for l.used > l.cap {
		v := l.ord.victim(e, !hit)
		if v == nil {
			v = e
		}
		l.ord.remove(v)
		delete(l.items, v.key)
		l.used -= v.cost
		if l.onEvict != nil {
			l.onEvict(v.key)
		}
	}
	return hit
}

// Warm implements Policy.
func (l *ledger[K]) Warm(keys []K) {
	for i := min(len(keys), int(l.cap)) - 1; i >= 0; i-- {
		l.Access(keys[i])
	}
}

// recency is the one-chain ordering behind LRU and FIFO: a new entry goes
// to the front, the back leaves first, and a hit moves its entry to the
// front only when touch is set.
type recency[K comparable] struct {
	ll    chain[K]
	touch bool
}

func (r *recency[K]) request(_ K, e *entry[K], _ int64) {
	if e != nil && r.touch {
		r.ll.moveToFront(e)
	}
}
func (r *recency[K]) insert(e *entry[K])                       { r.ll.pushFront(e) }
func (r *recency[K]) victim(spare *entry[K], _ bool) *entry[K] { return r.ll.backExcept(spare) }
func (r *recency[K]) remove(e *entry[K])                       { r.ll.remove(e) }

// LRU is a least-recently-used cache.
type LRU[K comparable] struct{ ledger[K] }

// NewLRU creates an LRU cache holding up to capacity cost units.
func NewLRU[K comparable](capacity int) *LRU[K] {
	c := &LRU[K]{}
	c.setup("LRU", capacity, 1, &recency[K]{touch: true})
	return c
}

// FIFO evicts in insertion order regardless of use.
type FIFO[K comparable] struct{ ledger[K] }

// NewFIFO creates a FIFO cache holding up to capacity cost units.
func NewFIFO[K comparable](capacity int) *FIFO[K] {
	c := &FIFO[K]{}
	c.setup("FIFO", capacity, 1, &recency[K]{})
	return c
}

// Warm implements Policy. Insertion order is all FIFO has, so keys are
// admitted first to last rather than keys[0] last.
func (c *FIFO[K]) Warm(keys []K) {
	for _, k := range keys {
		if c.used >= c.cap {
			break
		}
		c.Access(k)
	}
}

// LFU evicts the least-frequently-used key, breaking ties by recency.
// Implemented with the standard O(1) frequency-list structure.
type LFU[K comparable] struct {
	ledger[K]
	freqs *list.List // of *freqBucket[K], ascending frequency
}

type freqBucket[K comparable] struct {
	freq    int64
	entries chain[K] // front = most recent
}

// NewLFU creates an LFU cache holding up to capacity cost units.
func NewLFU[K comparable](capacity int) *LFU[K] {
	c := &LFU[K]{freqs: list.New()}
	c.setup("LFU", capacity, 1, c)
	return c
}

// request promotes a hit entry to the next frequency bucket.
func (c *LFU[K]) request(_ K, e *entry[K], _ int64) {
	if e == nil {
		return
	}
	from := e.bucket
	b := from.Value.(*freqBucket[K])
	to := from.Next()
	if to == nil || to.Value.(*freqBucket[K]).freq != b.freq+1 {
		to = c.freqs.InsertAfter(&freqBucket[K]{freq: b.freq + 1}, from)
	}
	c.remove(e)
	e.bucket = to
	to.Value.(*freqBucket[K]).entries.pushFront(e)
}

// insert places a new entry at frequency 1.
func (c *LFU[K]) insert(e *entry[K]) {
	front := c.freqs.Front()
	if front == nil || front.Value.(*freqBucket[K]).freq != 1 {
		front = c.freqs.PushFront(&freqBucket[K]{freq: 1})
	}
	e.bucket = front
	front.Value.(*freqBucket[K]).entries.pushFront(e)
}

// victim is the least recent entry of the lowest frequency.
func (c *LFU[K]) victim(spare *entry[K], _ bool) *entry[K] {
	for fb := c.freqs.Front(); fb != nil; fb = fb.Next() {
		if v := fb.Value.(*freqBucket[K]).entries.backExcept(spare); v != nil {
			return v
		}
	}
	return nil
}

func (c *LFU[K]) remove(e *entry[K]) {
	b := e.bucket.Value.(*freqBucket[K])
	b.entries.remove(e)
	if b.entries.front == nil {
		c.freqs.Remove(e.bucket)
	}
}
