// Package arena provides bump-allocated, pointer-free byte storage for
// snapshot document caches. Encoded documents are appended into large
// shared []byte slabs and addressed by (offset, length) pairs of plain
// integers, so a million cached documents cost the garbage collector a
// handful of slab objects instead of millions of individually traced
// slices and strings: slabs contain no pointers, and Go's collector
// never scans the interior of a noscan object.
//
// Arenas are reference-counted by the snapshots that hold documents in
// them. A day-roll carries unchanged documents forward by copying their
// integer handles — the successor snapshot retains the predecessor's
// arena instead of re-encoding or re-compressing anything — and when
// the last snapshot referencing an arena is dropped, its full-size
// slabs recycle into a Pool for the next day's allocations. Safety does
// not hinge on the counts being perfect: slabs are ordinary GC-managed
// memory, so the cost of a lost reference is a missed reuse, never a
// dangling pointer.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// SlabSize is the standard slab: 1 MiB. Offsets within an arena are
	// packed as slabIndex<<SlabShift | byteOffset in a uint32, capping an
	// arena at 4096 slabs (4 GiB) — far beyond one snapshot's documents.
	SlabShift = 20
	SlabSize  = 1 << SlabShift
	slabMask  = SlabSize - 1
	maxSlabs  = 1 << (32 - SlabShift)
)

// PoolStats is a point-in-time view of slab accounting.
type PoolStats struct {
	ArenasLive  int64 // arenas created and not yet fully released
	SlabsLive   int64 // standard slabs currently owned by live arenas
	SlabsPooled int64 // standard slabs parked for reuse
	SlabsMade   int64 // cumulative slabs allocated fresh from the heap
	SlabsReused int64 // cumulative slab grabs satisfied by the pool
	LiveBytes   int64 // sum of LiveBytes over live arenas
}

// Pool recycles full-size slabs between arenas so steady-state day-rolls
// stop asking the heap (and therefore the collector) for fresh slab
// memory. Oversize slabs (documents larger than SlabSize) are never
// pooled — they go back to the GC on release.
type Pool struct {
	mu   sync.Mutex
	free [][]byte
	max  int

	arenas      atomic.Int64
	slabsLive   atomic.Int64
	slabsMade   atomic.Int64
	slabsReused atomic.Int64
	liveBytes   atomic.Int64
}

// NewPool returns a pool retaining at most maxRetained standard slabs
// (<= 0 picks a default of 64 slabs, i.e. 64 MiB).
func NewPool(maxRetained int) *Pool {
	if maxRetained <= 0 {
		maxRetained = 64
	}
	return &Pool{max: maxRetained}
}

// Stats returns current slab accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	pooled := int64(len(p.free))
	p.mu.Unlock()
	return PoolStats{
		ArenasLive:  p.arenas.Load(),
		SlabsLive:   p.slabsLive.Load(),
		SlabsPooled: pooled,
		SlabsMade:   p.slabsMade.Load(),
		SlabsReused: p.slabsReused.Load(),
		LiveBytes:   p.liveBytes.Load(),
	}
}

func (p *Pool) getSlab() []byte {
	p.mu.Lock()
	var s []byte
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if s != nil {
		p.slabsReused.Add(1)
	} else {
		p.slabsMade.Add(1)
		s = make([]byte, SlabSize)
	}
	p.slabsLive.Add(1)
	return s
}

func (p *Pool) putSlabs(slabs [][]byte) {
	var returned int64
	p.mu.Lock()
	for _, s := range slabs {
		// Only standard slabs are worth parking; an oversize slab is
		// sized for one specific document and unlikely to fit the next.
		if len(s) != SlabSize || len(p.free) >= p.max {
			continue
		}
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
	for _, s := range slabs {
		if len(s) == SlabSize {
			returned++
		}
	}
	p.slabsLive.Add(-returned)
}

// Arena is one bump allocator over pooled slabs. Allocation takes the
// arena's mutex (fills are rare: once per document content-version,
// ever); reads are lock-free — the slab table is published through an
// atomic pointer with copy-on-append, so Bytes/String never synchronize
// with concurrent Alloc calls.
//
// The reference count starts at 1, owned by the snapshot the arena was
// created for. Successor snapshots that carry documents referencing the
// arena call Retain; Release recycles the slabs once the count drains.
type Arena struct {
	pool *Pool
	refs atomic.Int64

	mu      sync.Mutex
	slabs   atomic.Pointer[[][]byte]
	tailIdx int
	tailOff int

	live atomic.Int64
}

// New returns an empty arena with one reference, drawing slabs from p.
func New(p *Pool) *Arena {
	a := &Arena{pool: p}
	a.refs.Store(1)
	empty := make([][]byte, 0, 8)
	a.slabs.Store(&empty)
	a.tailIdx = -1
	p.arenas.Add(1)
	return a
}

// appendSlab publishes a new slab table containing s; callers hold mu.
func (a *Arena) appendSlab(s []byte) int {
	cur := *a.slabs.Load()
	if len(cur) >= maxSlabs {
		panic("arena: address space exhausted (4 GiB)")
	}
	next := make([][]byte, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	a.slabs.Store(&next)
	return len(cur)
}

// Alloc reserves n bytes and returns the packed offset plus the region
// to write into. The region must be fully written before the offset is
// shared with readers. n > SlabSize gets a dedicated oversize slab.
func (a *Arena) Alloc(n int) (uint32, []byte) {
	if n <= 0 {
		return 0, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > SlabSize {
		idx := a.appendSlab(make([]byte, n))
		a.grow(int64(n))
		return uint32(idx << SlabShift), (*a.slabs.Load())[idx]
	}
	if a.tailIdx < 0 || a.tailOff+n > SlabSize {
		a.tailIdx = a.appendSlab(a.pool.getSlab())
		a.tailOff = 0
	}
	off := uint32(a.tailIdx<<SlabShift | a.tailOff)
	b := (*a.slabs.Load())[a.tailIdx][a.tailOff : a.tailOff+n : a.tailOff+n]
	a.tailOff += n
	a.grow(int64(n))
	return off, b
}

// grow accounts n freshly allocated bytes.
func (a *Arena) grow(n int64) {
	a.live.Add(n)
	a.pool.liveBytes.Add(n)
}

// Bytes returns the n bytes at packed offset off. The slice aliases the
// slab; callers must not write through it.
func (a *Arena) Bytes(off, n uint32) []byte {
	slab := (*a.slabs.Load())[off>>SlabShift]
	o := off & slabMask
	return slab[o : o+n : o+n]
}

// String returns the n bytes at off as a string without copying. The
// region is write-once (documents are immutable after fill), which is
// exactly the immutability contract string demands.
func (a *Arena) String(off, n uint32) string {
	b := a.Bytes(off, n)
	return AsString(b)
}

// AsString reinterprets b as a string without copying. Callers must
// guarantee b is never written again.
func AsString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Retain adds a reference (a successor snapshot carrying documents that
// live in this arena).
func (a *Arena) Retain() { a.refs.Add(1) }

// Release drops one reference; the last release returns standard slabs
// to the pool and lets the GC take any oversize ones.
func (a *Arena) Release() {
	n := a.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("arena: over-released")
	}
	a.mu.Lock()
	slabs := *a.slabs.Load()
	empty := make([][]byte, 0)
	a.slabs.Store(&empty)
	a.tailIdx = -1
	a.mu.Unlock()
	a.pool.putSlabs(slabs)
	a.pool.liveBytes.Add(-a.live.Swap(0))
	a.pool.arenas.Add(-1)
}

// LiveBytes is everything allocated from the arena minus everything
// reported dropped: an estimate of how much of it still backs reachable
// documents. Set against PinnedBytes it decides when compaction pays.
func (a *Arena) LiveBytes() int64 { return a.live.Load() }

// PinnedBytes is what the arena keeps off the pool while it lives: its
// slab count at the standard slab size.
func (a *Arena) PinnedBytes() int64 { return int64(a.Slabs()) * SlabSize }

// DropBytes records that n previously allocated bytes are no longer
// referenced by any snapshot (their document changed or was discarded
// during a day-roll carry).
func (a *Arena) DropBytes(n int64) {
	a.live.Add(-n)
	a.pool.liveBytes.Add(-n)
}

// Slabs returns how many slabs the arena currently holds.
func (a *Arena) Slabs() int { return len(*a.slabs.Load()) }
