package storeserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"planetapps/internal/arena"
	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
	"planetapps/internal/wal"
)

// retentionMarket is cmd/bench's market at a fraction of its size: a
// pinned population on a 4096-day period, so a day changes about 2 % of
// download counts and 0.3 % of rows — the small daily delta whose retention
// these tests bound.
func retentionMarket(t *testing.T, apps int) *marketsim.Market {
	t.Helper()
	return lowChurnMarket(t, apps, float64(apps)/2000)
}

// lowChurnMarket is retentionMarket with the arrival rate spelled out: at
// zero the catalog never grows, so a day-roll moves only the rows that
// were downloaded or updated.
func lowChurnMarket(t *testing.T, apps int, newAppsPerDay float64) *marketsim.Market {
	t.Helper()
	cfg := marketsim.DefaultConfig(catalog.Profile{
		Name: "retention", Apps: apps, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: newAppsPerDay,
		Users: apps, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	})
	cfg.Days = 4096
	cfg.WarmupDays = 0
	cfg.DisableSeries = true
	m, err := marketsim.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestArenaFootprintAcrossRolls holds compaction to its footprint rule on
// the shape that used to defeat it: a store whose day-roll re-encodes a
// few hundred KiB, far less than a slab. Every day's arena then pins one
// 1 MiB slab for a sliver of live documents; under a rule that looked at
// bytes allocated (and ignored arenas under 4 MiB) none of them was ever
// compacted, and slabs grew by one per roll until the 64-slot table forced
// a victim.
func TestArenaFootprintAcrossRolls(t *testing.T) {
	const rolls = 40
	s := New(retentionMarket(t, 6000), Config{PageSize: 100})
	// A partial fill, as a shard sees it: most details, no comment
	// documents.
	warm := func() {
		sn := s.snap.Load()
		sn.statsDoc()
		for i := 0; i < sn.n; i++ {
			if i%5 != 0 {
				sn.detailDoc(i)
			}
		}
	}
	warm()
	for r := 0; r < rolls; r++ {
		if err := s.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		warm()
	}
	st := s.Arena()
	t.Logf("after %d rolls: %+v", rolls, st)
	if st.Compactions == 0 || st.MovedDocs == 0 {
		t.Fatalf("no arena was ever evacuated: %+v", st)
	}
	// Every arena the last plan kept had a quarter of its slabs live; on top
	// of that come the arenas in flight: the serving snapshot's fresh arena,
	// still filling, and its predecessor's, whose last drops were booked
	// after the plan judged it.
	if bound := 4*st.LiveBytes + 2*arena.SlabSize; st.PinnedBytes > bound {
		t.Fatalf("arenas pin %d bytes for %d live (bound %d): %+v", st.PinnedBytes, st.LiveBytes, bound, st)
	}
	// Every document here is far smaller than a first slab, so no region
	// jumps the ramp and each arena's slabs are its first k steps.
	var slabBytes int64
	for _, a := range s.snap.Load().arenas {
		if a != nil {
			slabBytes += rampBytes(a.Slabs())
		}
	}
	if st.PinnedBytes != slabBytes {
		t.Fatalf("PinnedBytes %d is not the sum of the slabs' lengths, %d: %+v", st.PinnedBytes, slabBytes, st)
	}
}

// rampBytes is what k standard slabs add up to when they follow the ramp:
// arena.FirstSlabSize, doubling up to arena.SlabSize.
func rampBytes(k int) int64 {
	var sum, size int64 = 0, arena.FirstSlabSize
	for ; k > 0; k-- {
		sum += size
		size = min(2*size, arena.SlabSize)
	}
	return sum
}

// TestDayArenaPinsWhatItHolds: the arena a day-roll fills holds that day's
// delta — a few dozen re-encoded documents on a crawl-sized store — and pins
// about that much, not the 1 MiB slab every arena's first allocation used to
// take. Twenty such stores pinned 40 MiB for 19 MiB of live documents.
func TestDayArenaPinsWhatItHolds(t *testing.T) {
	s := commentedServer(t, 3750, Config{PageSize: 100})
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	forceFill(s)
	sn := s.snap.Load()
	fresh := sn.fresh
	t.Logf("day arena: %d live bytes in %d slabs pinning %d; table %+v", fresh.LiveBytes(), fresh.Slabs(), fresh.PinnedBytes(), s.Arena())
	if fresh.LiveBytes() == 0 || sn.compacted != 0 {
		t.Fatalf("want a roll that re-encodes a few documents and evacuates nothing: %d live bytes, %d arenas compacted", fresh.LiveBytes(), sn.compacted)
	}
	if bound := 2*fresh.LiveBytes() + arena.FirstSlabSize; fresh.PinnedBytes() > bound {
		t.Fatalf("the day arena pins %d bytes for %d live (bound %d)", fresh.PinnedBytes(), fresh.LiveBytes(), bound)
	}
}

// commentedServer returns a store over apps apps with a generated comment
// population attached and every document encoded.
func commentedServer(t *testing.T, apps int, cfg Config) *Server {
	t.Helper()
	m := retentionMarket(t, apps)
	s := New(m, cfg)
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetComments(cs)
	forceFill(s)
	return s
}

// TestMergeCommentsCopiesOnlyTheDelta bounds what a roll with k commented
// apps out of n costs in absorbWrites' comment merge: the table spine, the
// chunks holding a written row, and the k streams — not a clone of the
// n-entry comment and version maps, which is what every such roll paid
// (and every not-yet-collected snapshot kept) before the table was chunked.
func TestMergeCommentsCopiesOnlyTheDelta(t *testing.T) {
	const n = 3200
	s := commentedServer(t, n, Config{PageSize: 100})
	base := s.comments
	if streams := commentedApps(base); streams < n/10 {
		t.Fatalf("only %d of %d apps have an attached stream", streams, n)
	}
	all := slices.Clone(base.all)
	// Five apps in three chunks.
	ids := []int32{3, 4, 70, 2000, 2001}
	recs := map[int32][]wal.Rec{}
	var streamBytes uintptr
	for _, id := range ids {
		recs[id] = []wal.Rec{{Kind: wal.Comment, App: id, User: 9, Rating: 4}}
		streamBytes += uintptr(len(base.stream(id))+1) * unsafe.Sizeof(CommentJSON{})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s.mergeComments(ids, recs)
	runtime.ReadMemStats(&ms1)
	for _, id := range ids {
		cs, ver := s.comTab.row(int(id))
		if old := base.stream(id); ver != 1 || len(cs) != len(old)+1 || cs[len(old)].User != 9 {
			t.Fatalf("app %d: ver %d, %d comments over a base of %d", id, ver, len(cs), len(old))
		}
	}
	if s.comments != base || !slices.Equal(base.all, all) {
		t.Fatal("the merge wrote to the SetComments index")
	}
	if raceEnabled {
		return // allocation counts and bytes mean nothing under the race allocator
	}
	// One spine, three chunks, five streams; each later merge re-copies the
	// chunks it touches, so the count holds run after run.
	const touched = 3
	if allocs := testing.AllocsPerRun(10, func() { s.mergeComments(ids, recs) }); allocs > float64(1+touched+len(ids)) {
		t.Fatalf("mergeComments: %.0f allocations for %d written apps in %d chunks", allocs, len(ids), touched)
	}
	want := uintptr(numDocChunks(n))*unsafe.Sizeof((*comChunk)(nil)) + touched*unsafe.Sizeof(comChunk{}) + streamBytes
	if got := uintptr(ms1.TotalAlloc - ms0.TotalAlloc); got > 2*want {
		t.Fatalf("mergeComments allocated %d bytes; spine + %d chunks + %d streams is %d", got, touched, len(ids), want)
	}
}

// TestCommentCarrySharesUntouchedBlocks drives the same rule through a
// whole roll: every comDocs block whose rows saw no comment write is the
// predecessor's block, pointer for pointer, and inside a touched block only
// the written rows start empty.
func TestCommentCarrySharesUntouchedBlocks(t *testing.T) {
	const n = 3200
	s := commentedServer(t, n, Config{PageSize: 100})
	h := s.Handler()
	written := map[int]bool{3: true, 4: true, 70: true, 2000: true}
	for id := range written {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/api/v1/apps/%d/comments", id),
			strings.NewReader(`{"user":9,"rating":4}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST comment on app %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	before := s.snap.Load()
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	after := s.snap.Load()
	if after.compacted != 0 {
		t.Fatalf("a fully warmed arena was evacuated (%d docs moved); the pointer checks below need it in place", after.moved)
	}
	for c := 0; c < before.n/docChunk; c++ { // full blocks only: the tail is carried entry by entry
		touched := false
		for j := 0; j < docChunk; j++ {
			touched = touched || written[c*docChunk+j]
		}
		pb, nb := before.comDocs.blocks[c].Load(), after.comDocs.blocks[c].Load()
		if !touched {
			if after.comTab.chunk(c) != nil {
				t.Fatalf("chunk %d: comment state cloned with no write in it", c)
			}
			if nb != pb {
				t.Fatalf("chunk %d: untouched comment block rebuilt instead of shared", c)
			}
			continue
		}
		if nb == pb {
			t.Fatalf("chunk %d: block with written rows shared with the predecessor", c)
		}
		for j := 0; j < docChunk; j++ {
			i := c*docChunk + j
			h0, h1 := before.comDocs.docAt(i), after.comDocs.docAt(i)
			if written[i] {
				if h1.filled() {
					t.Fatalf("app %d: written stream's stale document carried", i)
				}
				d0, d1 := before.commentsDoc(i), after.commentsDoc(i)
				if want := strings.TrimSuffix(d0.etag, `"`) + `-w1"`; d1.etag != want {
					t.Fatalf("app %d: etag %s after one merge, want %s", i, d1.etag, want)
				}
				b0, b1 := servedBody(before, docComments, i), servedBody(after, docComments, i)
				if !bytes.HasPrefix(b1, bytes.TrimSuffix(b0, []byte("]\n"))) || bytes.Equal(b0, b1) {
					t.Fatalf("app %d: merged stream does not extend the old one", i)
				}
			} else if h1 != h0 {
				t.Fatalf("app %d: unwritten neighbour of a written row not carried", i)
			}
		}
	}
}

// heldBy returns the heap build's result keeps alive.
func heldBy(build func() any) int64 {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	v := build()
	held := live() - before
	runtime.KeepAlive(v)
	return held
}

// TestShardsHoldOneGenesisAndNoDenseExport bounds what the three further
// members of a four-shard in-process fleet cost over a single store. They
// run the same market, so until they roll they read the first one's whole
// day-0 market in place — genesis (its packed download schedule above all),
// catalog, sampling tables, user states and downloads — and each exports
// its quarter straight out of its market, so none builds or keeps the dense
// export an unsharded store serves from, nor a copy of the catalog rows.
// Before any of that, four shards held four schedules, four catalogs, four
// day-0 markets and four dense exports: more than four single stores. Once
// every member has rolled, two of them absorbing written downloads, they
// still share each day's simulation, and a further member holds its own
// counts and row versions beside what it held before. When each member
// stepped a copy of its own, the fleet held 24.0 MB here after eight days;
// when each export copied its rows, 9.44 MB at day 0 and 10.8 MB rolled,
// against bounds now of 8.29 and 10.2.
func TestShardsHoldOneGenesisAndNoDenseExport(t *testing.T) {
	const (
		apps   = 20_000
		shards = 4
		days   = 8
	)
	// A market of another key takes each memo's one entry, so that each
	// measurement below starts from a genesis and a day-0 market it has to
	// build and hold itself.
	displaceGenesis := func() { lowChurnMarket(t, 10, 0) }
	newFleet := func() *[shards]*Server {
		var members [shards]*Server
		for k := range members {
			k := int32(k)
			part := marketsim.NewPartitioner(func(id int32) bool { return id%shards == k })
			members[k] = New(retentionMarket(t, apps), Config{PageSize: 100, Partition: part})
		}
		return &members
	}
	// roll advances members days days, every member a day before any the
	// next, the first written of them absorbing downloads of apps it owns.
	roll := func(members []*Server, written int) {
		for d := 0; d < days; d++ {
			for k, s := range members {
				for j := 0; k < written && j < 50; j++ {
					rec := wal.Rec{Kind: wal.Download, App: int32(k + shards*j), User: int32(100*d + j)}
					if _, err := s.wlog.Append(rec, ""); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.AdvanceDay(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	displaceGenesis()
	market := heldBy(func() any { return retentionMarket(t, apps) })
	displaceGenesis()
	single := heldBy(func() any { return New(retentionMarket(t, apps), Config{PageSize: 100}) })
	displaceGenesis()
	fleet := heldBy(func() any { return newFleet() })

	displaceGenesis()
	marketRolled := heldBy(func() any {
		m := retentionMarket(t, apps)
		for d := 0; d < days; d++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return m
	})
	displaceGenesis()
	singleRolled := heldBy(func() any {
		s := New(retentionMarket(t, apps), Config{PageSize: 100})
		roll([]*Server{s}, 0)
		return s
	})
	displaceGenesis()
	var merged int64
	fleetRolled := heldBy(func() any {
		members := newFleet()
		roll(members[:], 2)
		for _, s := range members {
			merged += s.WALStats().Merged
		}
		return members
	})
	if merged != 2*days*50 {
		t.Fatalf("the fleet merged %d written downloads, want %d", merged, 2*days*50)
	}
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	// 12 B a row (an 8 B count and a 4 B version) in the dense export: its
	// rows are the market's own. A further shard is allowed what a single
	// store holds beside its market, less the dense export, plus its own
	// share of the count vectors. That each such store's fixed state is
	// counted whole is the headroom.
	const dense = (8 + 4) * apps
	fixed := single - market - dense
	bound := single + (shards-1)*(fixed+dense/shards)
	t.Logf("%d apps: a market holds %d bytes, a single store %d (dense export %d, fixed state %d), %d shards %d: bound %d",
		apps, market, single, dense, fixed, shards, fleet, bound)
	if fleet > bound {
		t.Fatalf("%d shards hold %d bytes, want <= %d: one store plus %d without a market or a dense export",
			shards, fleet, bound, shards-1)
	}
	// Rolled, a further shard is allowed the same fixed state and share of
	// the count vectors, and its own counts and row versions: 16 B an app,
	// with room for 1/64 more apps and for the arrivals of the days rolled.
	// The fixed state is the day-0 store's: a rolled lone market's rows grew
	// by append, so its slack would make singleRolled - marketRolled no
	// measure of what a store holds beside its market.
	obs := int64(16 * (apps + apps/64 + days*apps/1000))
	rolledBound := singleRolled + (shards-1)*(obs+fixed+dense/shards)
	t.Logf("after %d days: a market holds %d bytes, a single store %d, %d shards %d: bound %d",
		days, marketRolled, singleRolled, shards, fleetRolled, rolledBound)
	if fleetRolled > rolledBound {
		t.Fatalf("after %d days %d shards hold %d bytes, want <= %d: one store plus %d with their own counts and no market",
			days, shards, fleetRolled, rolledBound, shards-1)
	}
}

// TestServedStoreHoldsItsValidators bounds what a crawl-sized store — one
// of the twenty sites of cmd/bench's crawl-direct, 3,750 apps and a
// population of 1,000 commenting users — holds once a crawler has fetched
// every document from it once: the comment index SetComments builds, the
// handle blocks, and in the arena each document's validators plus the
// bytes of the documents that kept a gzip form (long comment streams).
// The arena's slabs ramp up by doubling, so they pin at most twice what
// they hold plus the first slab; the stated slack, 64 KiB, is the rest of
// what a publish leaves (the republished snapshot, the client's limiter
// bucket). A handle block costs its 896 B size class, and a document keeps
// no identity bytes, so what the arena holds beyond validators is the gzip
// bodies of long streams. It holds about 464 KB against a bound of 514,166;
// with 28-byte handles (a block in the 2,048 B class) and long streams
// keeping their identity bytes beside the gzip form it held 606,920 B,
// and when every document kept its identity bytes — each detail row some
// 215 B of JSON an append encoder rebuilds in a fraction of a microsecond
// — 1.38 MB.
func TestServedStoreHoldsItsValidators(t *testing.T) {
	if raceEnabled {
		t.Skip("the race allocator pads every allocation; the bound is on the production layout")
	}
	const apps, users, slack = 3750, 1000, 64 << 10
	m := retentionMarket(t, apps)
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(users), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 100})
	h := s.Handler()
	fetch := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
	}
	held := heldBy(func() any {
		forgetIndex()
		s.SetComments(cs)
		fetch("/api/v1/stats")
		for id := 0; id < s.NumApps(); id++ {
			fetch(fmt.Sprintf("/api/v1/apps/%d", id))
			fetch(fmt.Sprintf("/api/v1/apps/%d/comments", id))
		}
		return s
	})
	runtime.KeepAlive(cs) // the population is the caller's: its collection is no saving of the store's

	sn := s.snap.Load()
	var validators, kept, blocks int64
	for _, c := range []*respCache{&sn.stats, &sn.detail, &sn.comDocs} {
		for b := range c.blocks {
			if c.blocks[b].Load() != nil {
				blocks++
			}
		}
		for i := 0; i < c.n; i++ {
			d := c.docAt(i)
			if !d.filled() {
				t.Fatalf("document %d of %d not filled by the crawl", i, c.n)
			}
			validators += int64(d.regionLen() - d.gzLen)
			kept += int64(d.gzLen)
		}
	}
	handles := blocks * blockSizeClass
	index := int64(cap(sn.comments.all))*int64(unsafe.Sizeof(CommentJSON{})) + int64(cap(sn.comments.off))*4
	bound := 2*(validators+kept) + arena.FirstSlabSize + handles + index + slack
	t.Logf("held %d B: validators %d, kept bodies %d, handles %d, comment index %d; bound %d", held, validators, kept, handles, index, bound)
	if held > bound {
		t.Fatalf("a crawled store holds %d B, want at most %d", held, bound)
	}
}
