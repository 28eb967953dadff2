package cache

// TwoQ implements the 2Q replacement policy (Johnson & Shasha, VLDB '94):
// first-time accesses enter a FIFO probation queue (A1in); keys evicted
// from probation are remembered in a ghost list (A1out, no payload); a hit
// on a ghost promotes the key into the protected LRU (Am). Scan-resistant:
// one-shot downloads churn through probation without displacing the
// protected set — a useful contrast policy for the clustering workload,
// where a large fraction of requests are one-time tail downloads.
//
// Probation is not trimmed to a sub-capacity while the cache has room;
// when it is full, the oldest probation entry leaves before any protected
// one.
type TwoQ[K comparable] struct {
	ledger[K]

	in chain[K] // probation FIFO, front = newest
	am chain[K] // protected LRU, front = most recent

	// The ghost list remembers at most one full capacity's worth of
	// evicted cost (at unit cost: `capacity` keys, exactly the classic
	// full-capacity ghost sizing). A ghost is the evicted entry itself,
	// kept at the cost it was resident at.
	ghost     chain[K] // front = newest
	ghosts    map[K]*entry[K]
	ghostCost int64

	// warming admits straight into the protected queue.
	warming bool
}

// Queue tags of a resident 2Q entry.
const (
	probation int32 = iota
	protected
)

// NewTwoQ creates a 2Q cache holding up to capacity cost units, with
// full-capacity ghost sizing.
func NewTwoQ[K comparable](capacity int) *TwoQ[K] {
	c := &TwoQ[K]{ghosts: map[K]*entry[K]{}}
	c.setup("2Q", capacity, 2, c)
	return c
}

// request refreshes a protected hit. Probation hits do not promote in
// classic 2Q (only ghost hits prove re-reference beyond the FIFO window).
func (c *TwoQ[K]) request(_ K, e *entry[K], _ int64) {
	if e != nil && e.tag == protected {
		c.am.moveToFront(e)
	}
}

// insert sends a first sighting to probation and a key re-referenced after
// its probation eviction to the protected queue.
func (c *TwoQ[K]) insert(e *entry[K]) {
	g, ghosted := c.ghosts[e.key]
	if ghosted {
		c.forget(g)
	}
	if ghosted || c.warming {
		e.tag = protected
		c.am.pushFront(e)
	} else {
		c.in.pushFront(e)
	}
}

func (c *TwoQ[K]) victim(spare *entry[K], _ bool) *entry[K] {
	if v := c.in.backExcept(spare); v != nil {
		return v
	}
	return c.am.backExcept(spare)
}

func (c *TwoQ[K]) remove(e *entry[K]) {
	if e.tag == protected {
		c.am.remove(e)
		return
	}
	c.in.remove(e)
	if e.cost > c.cap {
		return // outgrew the whole cache: as a ghost it would flush every other
	}
	c.ghosts[e.key] = e
	c.ghost.pushFront(e)
	c.ghostCost += e.cost
	for c.ghostCost > c.cap {
		c.forget(c.ghost.back)
	}
}

func (c *TwoQ[K]) forget(g *entry[K]) {
	c.ghost.remove(g)
	delete(c.ghosts, g.key)
	c.ghostCost -= g.cost
}

// Warm implements Policy: the keys are known-popular, so they skip
// probation.
func (c *TwoQ[K]) Warm(keys []K) {
	c.warming = true
	c.ledger.Warm(keys)
	c.warming = false
}
