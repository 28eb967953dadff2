package cache

// CategoryAware is the extension policy §7 of the paper motivates ("new
// replacement policies should be used, taking into account the
// clustering-based user behavior"). It is a partitioned LFU: capacity is
// divided into per-category segments whose sizes track each category's
// observed traffic share, and within a segment the least-frequently-used
// key is evicted (ties broken by recency).
//
// Rationale: under APP-CLUSTERING the aggregate request stream a shared
// cache sees has no temporal category locality (per-user category runs are
// interleaved across many users) — instead the clustering effect
// concentrates requests on every category's popularity head. Frequency is
// therefore the dominant signal, and the per-category partition keeps one
// category's churn from displacing another category's stable head, which
// a single global recency list cannot guarantee.
type CategoryAware[K comparable] struct {
	ledger[K]
	rebalance  int
	categoryOf func(K) int32

	segs    map[int32]*segment[K] // every category requested so far
	seq     int64                 // requests seen
	sinceRe int
}

// segment is one category's partition.
type segment[K comparable] struct {
	members  map[K]*entry[K]
	cost     int64 // resident cost
	requests int64
	target   int64 // capacity share in cost units; 0 before the first rebalance
}

// CategoryAwareConfig configures the policy.
type CategoryAwareConfig[K comparable] struct {
	// Capacity is the total cost the cache holds (number of apps at unit
	// cost, bytes for the edge tier).
	Capacity int
	// CategoryOf maps a key to its category id. It is consulted when a key
	// is requested while not resident; a resident key keeps the category
	// it was admitted under.
	CategoryOf func(K) int32
	// RebalanceEvery is the number of requests between allocation-target
	// recomputations; 0 selects Capacity.
	RebalanceEvery int
}

// NewCategoryAware builds the policy. It panics on invalid configuration,
// mirroring the other constructors.
func NewCategoryAware[K comparable](cfg CategoryAwareConfig[K]) *CategoryAware[K] {
	if cfg.CategoryOf == nil {
		panic("cache: CategoryAware needs CategoryOf")
	}
	c := &CategoryAware[K]{
		rebalance:  cfg.RebalanceEvery,
		categoryOf: cfg.CategoryOf,
		segs:       map[int32]*segment[K]{},
	}
	c.setup("CategoryAware", cfg.Capacity, 1, c)
	if c.rebalance <= 0 {
		c.rebalance = cfg.Capacity
	}
	return c
}

func (c *CategoryAware[K]) segment(cat int32) *segment[K] {
	seg := c.segs[cat]
	if seg == nil {
		seg = &segment[K]{members: map[K]*entry[K]{}}
		c.segs[cat] = seg
	}
	return seg
}

// request counts the access toward its category's traffic share — misses
// and rejected oversize keys are demand too — and scores a hit.
func (c *CategoryAware[K]) request(k K, e *entry[K], cost int64) {
	var seg *segment[K]
	if e == nil {
		seg = c.segment(c.categoryOf(k))
	} else {
		seg = c.segs[e.tag]
	}
	seg.requests++
	c.seq++
	c.sinceRe++
	if c.sinceRe >= c.rebalance {
		c.recomputeTargets()
		c.sinceRe = 0
	}
	if e != nil {
		e.freq++
		e.lastUse = c.seq
		seg.cost += cost - e.cost
	}
}

func (c *CategoryAware[K]) insert(e *entry[K]) {
	e.tag, e.freq, e.lastUse = c.categoryOf(e.key), 1, c.seq
	seg := c.segment(e.tag)
	seg.members[e.key] = e
	seg.cost += e.cost
}

// recomputeTargets reallocates capacity proportionally to observed traffic,
// guaranteeing at least one cost unit to every category seen so far and
// giving leftover capacity to the busiest category.
func (c *CategoryAware[K]) recomputeTargets() {
	var assigned int64
	var busiest *segment[K]
	var busiestCat int32
	for cat, seg := range c.segs {
		seg.target = max(1, int64(float64(c.cap)*float64(seg.requests)/float64(c.seq)))
		assigned += seg.target
		// Tie-break on the lower category id: map iteration order must
		// not decide who receives the leftover slots.
		if busiest == nil || seg.requests > busiest.requests || (seg.requests == busiest.requests && cat < busiestCat) {
			busiest, busiestCat = seg, cat
		}
	}
	if rem := c.cap - assigned; rem > 0 {
		busiest.target += rem
	}
}

// victim is the least-frequently-used key (ties by least recent) of the
// most over-target segment.
func (c *CategoryAware[K]) victim(spare *entry[K], admitting bool) *entry[K] {
	var from *segment[K]
	var fromCat int32
	var fromOver int64
	for cat, seg := range c.segs {
		candidates, over := len(seg.members), seg.cost-max(seg.target, 1)
		if cat == spare.tag {
			candidates--
			if admitting {
				// The incoming entry is already in seg.cost; take it out,
				// and once more as a handicap so its category can grow
				// toward its own target.
				over -= 2 * spare.cost
			}
		}
		if candidates == 0 {
			continue
		}
		// Tie-break on the lower category id, for the same reason as
		// recomputeTargets: equal-pressure segments must yield the same
		// victim on every run.
		if from == nil || over > fromOver || (over == fromOver && cat < fromCat) {
			from, fromCat, fromOver = seg, cat, over
		}
	}
	if from == nil {
		return nil
	}
	var v *entry[K]
	for _, e := range from.members {
		if e != spare && (v == nil || e.freq < v.freq || (e.freq == v.freq && e.lastUse < v.lastUse)) {
			v = e
		}
	}
	return v
}

func (c *CategoryAware[K]) remove(e *entry[K]) {
	seg := c.segs[e.tag]
	delete(seg.members, e.key)
	seg.cost -= e.cost
}
