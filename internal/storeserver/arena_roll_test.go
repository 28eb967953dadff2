package storeserver

import (
	"runtime"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/gcstats"
	"planetapps/internal/marketsim"
)

// forceFill materializes every cached document in the current snapshot:
// stats, every detail, every comment stream. This is what a fully warmed
// serving fleet looks like.
func forceFill(s *Server) {
	sn := s.snap.Load()
	sn.statsDoc()
	for i := 0; i < sn.n; i++ {
		sn.detailDoc(i)
		sn.commentsDoc(i)
	}
}

// TestSlabRecyclingAcrossRolls proves the refcount lifecycle is leak-free:
// across repeated day-rolls with fully warmed caches, retired arenas must
// actually release — the live-arena count stays bounded and slabs flow back
// through the pool instead of accumulating. At unit-test catalog sizes every
// arena is a single partly filled 1MiB slab — the shape a small shard's day
// arenas have in production — so this also holds the footprint rule to
// compacting them; without compaction, carried never-changing documents
// would pin every generation's arena by design.
func TestSlabRecyclingAcrossRolls(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.3))
	mcfg.Days = 16
	m, err := marketsim.New(mcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 25})
	forceFill(s)

	const rolls = 10
	for r := 0; r < rolls; r++ {
		if err := s.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		forceFill(s)
		runtime.GC() // let retired snapshots' finalizers release arenas
	}

	// Arena release rides snapshot finalizers; poll GC until the retired
	// generations actually go. rolls+1 snapshots were created and only the
	// latest survives: with compaction active, sparse old arenas evacuate
	// and release, so liveness must settle well below one-per-roll.
	deadline := time.Now().Add(15 * time.Second)
	var st ArenaStats
	for {
		runtime.GC()
		st = s.Arena()
		if st.ArenasLive <= int64(rolls) && (st.SlabsPooled > 0 || st.SlabsReused > 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("arenas never recycled: %+v after %d rolls", st, rolls)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.SlabsMade == 0 {
		t.Fatal("no slabs ever allocated — fill did not exercise arenas")
	}
	if st.Compactions == 0 || st.MovedDocs == 0 {
		t.Fatalf("compaction never ran: %+v", st)
	}
	// Leak bound: live slabs can cover at most the current snapshot's
	// arenas plus in-flight carry; pooled + live must not exceed what was
	// ever made (refcounts went negative nowhere, nothing double-counted).
	if st.SlabsLive+st.SlabsPooled > st.SlabsMade {
		t.Fatalf("slab accounting leak: %+v", st)
	}
}

// liveObjects is the heap's object count once collection has nothing left
// to do: finalizers (a dropped snapshot releases its arenas in one) and
// emptied sync.Pools free their objects a cycle or two after the GC that
// found them, so one reading after one GC is a reading of somebody else's
// garbage.
func liveObjects() int64 {
	prev := int64(-1)
	for i := 0; i < 20; i++ {
		runtime.GC()
		n := int64(gcstats.Read().HeapObjects)
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// TestHeapObjectsGate is the CI regression gate for the arena layout: a
// fully warmed snapshot's document caches must cost a near-constant number
// of heap objects (handle blocks + slabs), not objects proportional to
// documents. Pointer-per-document caching at this scale costs hundreds of
// thousands of objects; the arena layout costs a few hundred.
//
// The census is of a second fill. A first server over the same market is
// filled and dropped before anything is counted, so whatever a process
// allocates once on the way (buffer pools, lazily built tables) is there on
// both sides of the subtraction, and both readings are taken from a settled
// heap: the difference is positive and the same from run to run. (Counted
// over the first fill from a heap two GCs old it read minus eleven thousand,
// which a per-document allocation could hide behind.)
func TestHeapObjectsGate(t *testing.T) {
	if raceEnabled {
		// The race allocator pads and tracks every allocation, so a live
		// object census says nothing about the production layout. CI runs
		// this gate without -race.
		t.Skip("object census is meaningless under the race allocator")
	}
	// The population is pinned, as cmd/bench pins it: the gate looks at
	// documents, and a stock profile at this size spends sixteen seconds
	// simulating users it never looks at.
	m := retentionMarket(t, 20_000)
	forceFill(New(m, Config{PageSize: 100}))

	s := New(m, Config{PageSize: 100})
	n := s.snap.Load().n
	base := liveObjects()
	forceFill(s)
	cacheObjects := liveObjects() - base
	t.Logf("apps=%d cache heap objects=%d", n, cacheObjects)
	// 2n documents are cached (detail + comments) plus stats. A layout
	// with an object per document spends at least 2n; the arena layout
	// spends one docBlock per 64 documents plus a slab per MiB, 2n/64 and
	// a few. n/8 is four times that and a sixteenth of the other.
	if floor, budget := int64(2*n/docChunk), int64(n)/8; cacheObjects < floor || cacheObjects > budget {
		t.Fatalf("cache heap objects = %d, want %d (a docBlock per %d documents) .. %d: under the floor the census is not counting the fill, over the budget per-document allocations crept back in",
			cacheObjects, floor, docChunk, budget)
	}
	runtime.KeepAlive(s)
}
