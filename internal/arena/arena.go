// Package arena provides bump-allocated, pointer-free byte storage for
// snapshot document caches. Encoded documents are appended into large
// shared []byte slabs and addressed by (offset, length) pairs of plain
// integers, so a million cached documents cost the garbage collector a
// handful of slab objects instead of millions of individually traced
// slices and strings: slabs contain no pointers, and Go's collector
// never scans the interior of a noscan object.
//
// An arena's standard slabs ramp up: the first is FirstSlabSize (16 KiB)
// and each later one twice the one before, up to SlabSize (1 MiB), where
// they stay. A day-roll's arena that re-encodes a few dozen documents thus
// pins a few KiB instead of a whole 1 MiB slab. The ramp's six slabs hold
// 1008 KiB, so an arena whose documents need between that and 1 MiB pins
// 2032 KiB: the one size at which the ramp costs more than a single slab.
//
// Slabs come from the heap and are never recycled. A day-roll carries
// unchanged documents forward by copying their integer handles — the
// successor snapshot keeps the predecessor's arena in its table instead
// of re-encoding or re-compressing anything — and an arena no snapshot
// cites is garbage like any other value. A byte view handed out by Bytes
// or String points into its slab, so the slab lives exactly as long as
// some response still holds the view: no later fill can ever write over
// bytes a reader can see.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// SlabSize is the largest standard slab: 1 MiB. Offsets within an
	// arena are packed as slabIndex<<SlabShift | byteOffset in a uint32,
	// capping an arena at 4096 slabs (under 4 GiB) — far beyond one
	// snapshot's documents.
	SlabShift = 20
	SlabSize  = 1 << SlabShift
	slabMask  = SlabSize - 1
	maxSlabs  = 1 << (32 - SlabShift)
	// FirstSlabSize is an arena's first standard slab; the ramp from it
	// to SlabSize is six slabs holding 1008 KiB.
	FirstSlabSize = 16 << 10
)

// Arena is one bump allocator over heap slabs. Allocation takes the
// arena's mutex (fills are rare: once per document content-version,
// ever); reads are lock-free — the slab table is published through an
// atomic pointer with copy-on-append, so Bytes/String never synchronize
// with concurrent Alloc calls.
type Arena struct {
	made *atomic.Int64 // the owner's count of slabs made, shared by its arenas

	mu       sync.Mutex
	slabs    atomic.Pointer[[][]byte]
	tailIdx  int
	tailOff  int
	nextSlab int // the next standard slab's size

	live   atomic.Int64
	pinned atomic.Int64 // the sum of the slabs' lengths
}

// New returns an empty arena that adds every slab it makes to *made.
func New(made *atomic.Int64) *Arena {
	a := &Arena{made: made, tailIdx: -1, nextSlab: FirstSlabSize}
	empty := make([][]byte, 0, 8)
	a.slabs.Store(&empty)
	return a
}

// appendSlab makes an n-byte slab and publishes a new slab table
// containing it; callers hold mu.
func (a *Arena) appendSlab(n int) int {
	cur := *a.slabs.Load()
	if len(cur) >= maxSlabs {
		panic("arena: address space exhausted (4 GiB)")
	}
	next := make([][]byte, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = make([]byte, n)
	a.slabs.Store(&next)
	a.made.Add(1)
	a.pinned.Add(int64(n))
	return len(cur)
}

// Alloc reserves n bytes and returns the packed offset plus the region
// to write into. The region must be fully written before the offset is
// shared with readers. A region that does not fit the tail slab opens the
// next standard slab, or the smallest power of two past it that holds the
// region; n > SlabSize gets a dedicated oversize slab.
func (a *Arena) Alloc(n int) (uint32, []byte) {
	if n <= 0 {
		return 0, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > SlabSize {
		idx := a.appendSlab(n)
		a.live.Add(int64(n))
		return uint32(idx << SlabShift), (*a.slabs.Load())[idx]
	}
	if a.tailIdx < 0 || a.tailOff+n > len((*a.slabs.Load())[a.tailIdx]) {
		size := a.nextSlab
		for size < n {
			size *= 2
		}
		a.tailIdx = a.appendSlab(size)
		a.tailOff = 0
		a.nextSlab = min(2*size, SlabSize)
	}
	off := uint32(a.tailIdx<<SlabShift | a.tailOff)
	b := (*a.slabs.Load())[a.tailIdx][a.tailOff : a.tailOff+n : a.tailOff+n]
	a.tailOff += n
	a.live.Add(int64(n))
	return off, b
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

// LiveBytes is everything allocated from the arena minus everything
// reported dropped: an estimate of how much of it still backs reachable
// documents. Set against PinnedBytes it decides when compaction pays.
func (a *Arena) LiveBytes() int64 { return a.live.Load() }

// PinnedBytes is the heap the arena holds while a snapshot cites it: the
// sum of its slabs' lengths.
func (a *Arena) PinnedBytes() int64 { return a.pinned.Load() }

// DropBytes records that n previously allocated bytes are no longer
// referenced by any snapshot (their document changed or was discarded
// during a day-roll carry).
func (a *Arena) DropBytes(n int64) { a.live.Add(-n) }

// Slabs returns how many slabs the arena currently holds.
func (a *Arena) Slabs() int { return len(*a.slabs.Load()) }
