package storeserver

import (
	"runtime"
	"strings"
	"testing"

	"planetapps/internal/arena"
	"planetapps/internal/catalog"
	"planetapps/internal/gcstats"
	"planetapps/internal/marketsim"
)

// forceFill materializes every cached document in the current snapshot:
// stats, every detail, every comment stream. This is what a fully warmed
// serving fleet looks like.
func forceFill(s *Server) {
	sn := s.snap.Load()
	fill := func(d docView) { d.release() }
	fill(sn.statsDoc())
	for i := 0; i < sn.n; i++ {
		fill(sn.detailDoc(i))
		fill(sn.commentsDoc(i))
	}
}

// TestServingArenasBoundedAcrossRolls holds the serving snapshot's arena
// table to a bound across repeated day-rolls with fully warmed caches. At
// unit-test catalog sizes every arena stays on its slab ramp, under one
// 1 MiB standard slab in all — the shape a small shard's day arenas have in
// production, judged as if they pinned that slab — so this holds the
// footprint rule to compacting them: without compaction, carried
// never-changing documents would pin every generation's arena, one per
// roll. The table is read straight off the serving snapshot; a retired
// snapshot's arenas are the collector's and nothing waits for them.
func TestServingArenasBoundedAcrossRolls(t *testing.T) {
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
	}
	st := s.Arena()
	t.Logf("after %d rolls: %+v", rolls, st)
	if st.Compactions == 0 || st.MovedDocs == 0 {
		t.Fatalf("compaction never ran: %+v", st)
	}
	// A roll here re-encodes far less than a quarter of a slab, so every
	// arena the plan judged was compacted away: what serves is the fresh
	// arena and at most its predecessor's, not one per roll.
	if st.ArenasLive > 2 {
		t.Fatalf("%d arenas serve after %d rolls, want at most 2: %+v", st.ArenasLive, rolls, st)
	}
	if st.SlabsLive < st.ArenasLive || st.SlabsLive > st.SlabsMade {
		t.Fatalf("slab accounting: %d live of %d made over %d arenas", st.SlabsLive, st.SlabsMade, st.ArenasLive)
	}
}

// TestHeldViewOutlivesItsSnapshot: a response can hold a document's bytes
// after the last reference to its snapshot is gone — net/http writes the
// body and serializes the ETag and Content-Length header strings after
// the handler has returned. Those views must read the same bytes however
// many rolls, collections and fills follow. A slab handed back for reuse
// when its snapshot was collected would put a later day's document under
// a day-0 view. The views held are the stats document's validators (all it
// keeps) and a long comment stream's validators and gzip body.
func TestHeldViewOutlivesItsSnapshot(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.1))
	mcfg.Days = 8
	m, err := marketsim.New(mcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 25})
	s.SetComments(commentRun(3, 40))
	st, cd := s.snap.Load().statsDoc(), s.snap.Load().commentsDoc(3)
	st.release()
	if cd.gzBody == nil {
		t.Fatal("the long comment stream kept no bytes")
	}
	cd.release()
	held := []string{st.etag, st.clen, cd.etag, cd.clen, cd.gzEtag, cd.gzClen, arena.AsString(cd.gzBody)}
	want := make([]string, len(held))
	for i, v := range held {
		want[i] = strings.Clone(v)
	}
	for r := 1; r <= 4; r++ {
		if err := s.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			runtime.GC()
		}
		forceFill(s)
		for i := range held {
			if held[i] != want[i] {
				t.Fatalf("after roll %d a day-0 view reads %q, want %q", r, held[i], want[i])
			}
		}
	}
}

// liveObjects is the heap's object count once collection has nothing left
// to do: emptied sync.Pools free their objects a cycle or two after the GC
// that found them, so one reading after one GC is a reading of somebody
// else's garbage.
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
