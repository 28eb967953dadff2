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

// TestHeapObjectsGate is the CI regression gate for the arena layout: a
// fully warmed snapshot's document caches must cost a near-constant number
// of heap objects (handle blocks + slabs), not objects proportional to
// documents. Pointer-per-document caching at this scale costs hundreds of
// thousands of objects; the arena layout costs a few thousand.
func TestHeapObjectsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs in CI; skipped under -short")
	}
	if raceEnabled {
		// The race allocator pads and tracks every allocation, so a live
		// object census says nothing about the production layout — and the
		// 20k-app fill runs ~10x slower. CI runs this gate without -race.
		t.Skip("object census is meaningless under the race allocator")
	}
	prof := catalog.Profiles["anzhi"].Scale(3.4) // ~20k apps
	mcfg := marketsim.DefaultConfig(prof)
	mcfg.Days = 3
	mcfg.DisableSeries = true
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 100})
	n := s.snap.Load().n
	if n < 15000 {
		t.Fatalf("profile too small for a meaningful gate: %d apps", n)
	}

	runtime.GC()
	runtime.GC()
	base := gcstats.Read()
	forceFill(s)
	runtime.GC()
	runtime.GC()
	filled := gcstats.Read()

	cacheObjects := int64(filled.HeapObjects) - int64(base.HeapObjects)
	t.Logf("apps=%d cache heap objects=%d", n, cacheObjects)
	// ~2n docs are cached (detail + comments) plus stats. The
	// old layout spent >= 4 objects per doc (struct, body, gzip body,
	// header strings) — about 8n. The arena layout spends one docBlock
	// per 64 docs plus ~1 slab per MiB; n/8 leaves an order of magnitude
	// of slack below the old cost while catching any per-doc regression.
	budget := int64(n) / 8
	if cacheObjects > budget {
		t.Fatalf("cache heap objects = %d, budget %d (per-doc allocations crept back in)", cacheObjects, budget)
	}
}
