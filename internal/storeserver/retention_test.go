package storeserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
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

// settledArena polls the collector until retired snapshots' finalizers
// have released their arenas and the pool's counts stop moving.
func settledArena(s *Server) ArenaStats {
	var st ArenaStats
	for stable := 0; stable < 3; {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if now := s.Arena(); now == st {
			stable++
		} else {
			st, stable = now, 0
		}
	}
	return st
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
	st := settledArena(s)
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
	if st.PinnedBytes != st.SlabsLive*arena.SlabSize {
		t.Fatalf("PinnedBytes %d is not SlabsLive x SlabSize: %+v", st.PinnedBytes, st)
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
	if len(base) < n/10 {
		t.Fatalf("only %d of %d apps have an attached stream", len(base), n)
	}
	// Five apps in three chunks.
	ids := []int32{3, 4, 70, 2000, 2001}
	recs := map[int32][]wal.Rec{}
	var streamBytes uintptr
	for _, id := range ids {
		recs[id] = []wal.Rec{{Kind: wal.Comment, App: id, User: 9, Rating: 4}}
		streamBytes += uintptr(len(base[catalog.AppID(id)])+1) * unsafe.Sizeof(CommentJSON{})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s.mergeComments(ids, recs)
	runtime.ReadMemStats(&ms1)
	for _, id := range ids {
		cs, ver := s.comTab.row(int(id))
		if old := base[catalog.AppID(id)]; ver != 1 || len(cs) != len(old)+1 || cs[len(old)].User != 9 {
			t.Fatalf("app %d: ver %d, %d comments over a base of %d", id, ver, len(cs), len(old))
		}
	}
	if len(s.comments) != len(base) {
		t.Fatal("the merge wrote to the SetComments base map")
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
				if h1.state == docFilled {
					t.Fatalf("app %d: written stream's stale document carried", i)
				}
				d0, d1 := before.commentsDoc(i), after.commentsDoc(i)
				if want := strings.TrimSuffix(d0.etag, `"`) + `-w1"`; d1.etag != want {
					t.Fatalf("app %d: etag %s after one merge, want %s", i, d1.etag, want)
				}
				if !bytes.HasPrefix(d1.body, bytes.TrimSuffix(d0.body, []byte("]\n"))) || bytes.Equal(d0.body, d1.body) {
					t.Fatalf("app %d: merged stream does not extend the old one", i)
				}
			} else if h1 != h0 {
				t.Fatalf("app %d: unwritten neighbour of a written row not carried", i)
			}
		}
	}
}

// TestShardKeepsOnlyOwnedStreams: a partitioned server drops, at
// SetComments, the streams of apps it can never serve; what it keeps adds
// up across the fleet to the single node's population, and every comment
// document it serves is the single node's, byte for byte. (The same
// documents through the gateway are held to the single node's bytes by
// fleet's TestGatewayProxiesAppRoutesByteIdentical.)
func TestShardKeepsOnlyOwnedStreams(t *testing.T) {
	const (
		apps   = 2000
		shards = 4
	)
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	single := New(retentionMarket(t, apps), Config{PageSize: 100})
	single.SetComments(cs)
	ref := single.snap.Load()

	sum := 0
	for k := int32(0); k < shards; k++ {
		k := k
		part := marketsim.NewPartitioner(func(id int32) bool { return id%shards == k })
		s := New(retentionMarket(t, apps), Config{PageSize: 100, Partition: part})
		s.SetComments(cs)
		sn := s.snap.Load()
		for id := range sn.comments {
			if int32(id)%shards != k {
				t.Fatalf("shard %d holds app %d's stream", k, id)
			}
		}
		sum += len(sn.comments)
		for i := 0; i < sn.n; i++ {
			got, want := sn.commentsDoc(i), ref.commentsDoc(int(sn.ex.ID(i)))
			if got.etag != want.etag || !bytes.Equal(got.body, want.body) || !bytes.Equal(got.gzBody, want.gzBody) {
				t.Fatalf("shard %d app %d: comment document differs from the single node's", k, sn.ex.ID(i))
			}
		}
	}
	if sum != len(ref.comments) || sum == 0 {
		t.Fatalf("shards hold %d streams in all, the single node %d", sum, len(ref.comments))
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
// run the same market, so they read the first one's genesis (its packed
// download schedule above all) in place, and each exports its quarter
// straight out of its market, so none builds or keeps the dense export an
// unsharded store serves from. Before either, four shards held four
// schedules and four dense exports: more than four single stores.
func TestShardsHoldOneGenesisAndNoDenseExport(t *testing.T) {
	const (
		apps   = 20_000
		shards = 4
		events = 82 * apps
	)
	// A market of another key takes the memo's one entry, so that each
	// measurement below starts from a genesis it has to draw and hold itself.
	displaceGenesis := func() { lowChurnMarket(t, 10, 0) }

	displaceGenesis()
	single := heldBy(func() any { return New(retentionMarket(t, apps), Config{PageSize: 100}) })
	displaceGenesis()
	fleet := heldBy(func() any {
		var members [shards]*Server
		for k := range members {
			k := int32(k)
			part := marketsim.NewPartitioner(func(id int32) bool { return id%shards == k })
			members[k] = New(retentionMarket(t, apps), Config{PageSize: 100, Partition: part})
		}
		return &members
	})
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	// ⌈log2 20000⌉ = 15 bits an event, 8 B an app's appeal, 4 B a user's
	// budget; a 64 B row, an 8 B count and a 4 B version per exported app.
	// A further shard is allowed a single store less the genesis and the
	// dense export, plus its own share of the rows; that it also encodes
	// documents for a quarter of the catalog only is the headroom (7 %).
	const (
		genesis = events*15/8 + 8*apps + 4*apps
		dense   = (64 + 8 + 4) * apps
	)
	bound := single + (shards-1)*(single-genesis-dense+dense/shards)
	t.Logf("%d apps: a single store holds %d bytes (genesis %d, dense export %d), %d shards %d: bound %d",
		apps, single, genesis, dense, shards, fleet, bound)
	if fleet > bound {
		t.Fatalf("%d shards hold %d bytes, want <= %d: one store plus %d markets without a schedule or a dense export",
			shards, fleet, bound, shards-1)
	}
}
