package marketsim

import (
	"slices"
	"testing"

	"planetapps/internal/catalog"
)

func testMarket(t *testing.T, scale float64, seed uint64) *Market {
	t.Helper()
	cfg := exportTestConfig(scale, 30)
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// ownsMod returns a modulus ownership predicate: shard k of n.
func ownsMod(k, n int32) func(int32) bool {
	return func(id int32) bool { return id%n == k }
}

// TestPartitionUnionMatchesFull checks that N partitions of one export
// cover the catalog exactly once with identical per-app content, and that
// their totals sum to the dense total.
func TestPartitionUnionMatchesFull(t *testing.T) {
	m := testMarket(t, 0.02, 7)
	const shards = 3
	parts := make([]*Partitioner, shards)
	for k := range parts {
		parts[k] = NewPartitioner(ownsMod(int32(k), shards))
	}
	for day := 0; day < 4; day++ {
		if day > 0 {
			if err := m.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		full := m.Export()
		seen := make([]bool, full.NumApps())
		var total int64
		for k, p := range parts {
			pe := p.Partition(full)
			if pe.ids == nil {
				t.Fatalf("day %d shard %d: partition not sparse", day, k)
			}
			if pe.Day() != full.Day() {
				t.Fatalf("day %d shard %d: day %d", day, k, pe.Day())
			}
			total += pe.TotalDownloads()
			prevID := int32(-1)
			for i := 0; i < pe.NumApps(); i++ {
				id := pe.ID(i)
				if id <= prevID {
					t.Fatalf("shard %d: ids not ascending at row %d", k, i)
				}
				prevID = id
				if seen[id] {
					t.Fatalf("shard %d: app %d owned twice", k, id)
				}
				seen[id] = true
				g := int(id)
				if pe.App(i) != full.App(g) {
					t.Fatalf("shard %d app %d: row mismatch", k, id)
				}
				if pe.Downloads(i) != full.Downloads(g) {
					t.Fatalf("shard %d app %d: downloads %d != %d", k, id, pe.Downloads(i), full.Downloads(g))
				}
				if pe.RowVer(i) != full.RowVer(g) {
					t.Fatalf("shard %d app %d: rowver mismatch", k, id)
				}
				if j, ok := pe.IndexOf(id); !ok || j != i {
					t.Fatalf("shard %d: IndexOf(%d) = %d,%v want %d", k, id, j, ok, i)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("day %d: app %d owned by no shard", day, id)
			}
		}
		if total != full.TotalDownloads() {
			t.Fatalf("day %d: shard totals %d != full total %d", day, total, full.TotalDownloads())
		}
	}
}

// TestPartitionChunkSharing checks the copy-on-write contract: after a
// low-churn day, most partition chunks are pointer-shared with the
// previous partitioned export, and chunk versions are equal exactly when
// content is unchanged.
func TestPartitionChunkSharing(t *testing.T) {
	// Same low-churn regime as TestExportSharesChunksAcrossDays: daily
	// download volume a small fraction of the catalog, so most partition
	// chunks see no activity on any given day.
	cfg := DefaultConfig(catalog.Profile{
		Name: "lowchurn", Apps: 4000, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: 2,
		Users: 4000, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	})
	cfg.Days = 4096
	cfg.WarmupDays = 0
	m, err := New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioner(ownsMod(0, 2))
	e0 := p.Partition(m.Export())
	if err := m.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	e1 := p.Partition(m.Export())

	shared, fresh := 0, 0
	for c := 0; c < len(e1.chunkVer) && c < len(e0.chunkVer); c++ {
		lo, hi := chunkSpan(c, e1.NumApps())
		if len(e0.vers[c]) != hi-lo {
			continue
		}
		if &e1.vers[c][0] == &e0.vers[c][0] {
			shared++
			if e1.chunkVer[c] != e0.chunkVer[c] {
				t.Fatalf("chunk %d shared but versions differ", c)
			}
		} else {
			fresh++
			changed := false
			for j := lo; j < hi; j++ {
				if e1.RowVer(j) != e0.RowVer(j) {
					changed = true
					break
				}
			}
			if !changed {
				t.Errorf("chunk %d copied fresh with no row change", c)
			}
			if e1.chunkVer[c] <= e0.chunkVer[c] {
				t.Fatalf("chunk %d changed but version not monotone: %d <= %d",
					c, e1.chunkVer[c], e0.chunkVer[c])
			}
		}
	}
	if shared == 0 {
		t.Fatalf("no chunks shared across a one-day roll (fresh=%d)", fresh)
	}
	// ChunkUnchanged / UnchangedRows must agree with the sharing outcome.
	for c := 0; c < len(e1.chunkVer) && c < len(e0.chunkVer); c++ {
		lo, hi := chunkSpan(c, e1.NumApps())
		if len(e0.vers[c]) != hi-lo {
			continue
		}
		if e1.ChunkUnchanged(e0, c) != (e1.chunkVer[c] == e0.chunkVer[c]) {
			t.Fatalf("chunk %d: ChunkUnchanged disagrees with versions", c)
		}
		mask := e1.UnchangedRows(e0, c)
		for j := lo; j < hi; j++ {
			want := e1.RowVer(j) == e0.RowVer(j)
			if got := mask&(1<<uint(j-lo)) != 0; got != want {
				t.Fatalf("chunk %d row %d: UnchangedRows bit %v want %v", c, j, got, want)
			}
		}
	}
}

// TestPartitionMarketIsThePartition holds the live-market source to the
// dense-export one: four owners over thirty days of arrivals, updates and
// ingested downloads (on apps the owner holds and on apps it does not), one
// market partitioned in place and its twin through Export. Each day every
// owner's two exports agree row for row and header for header, and share
// exactly the same chunks with their own predecessors — the copy-on-write
// outcome, not only the content, is the same. The market partitioned in
// place never took a dense export.
func TestPartitionMarketIsThePartition(t *testing.T) {
	const (
		owners = 4
		days   = 30
	)
	cfg := retentionConfig(4000) // low churn: most chunks sit out any one day
	cfg.Profile.NewAppsPerDay = 4
	live, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var fromLive, fromDense [owners]*Partitioner
	for k := range fromLive {
		fromLive[k] = NewPartitioner(ownsMod(int32(k), owners))
		fromDense[k] = NewPartitioner(ownsMod(int32(k), owners))
	}
	var prevLive, prevDense [owners]*Export
	sharedChunks, freshChunks := 0, 0
	for day := 0; day <= days; day++ {
		if day > 0 {
			// Every residue class mod 4 gets a write, some past the catalog's end.
			written := []int32{int32(day), int32(day + 1), int32(3 * day), int32(live.Catalog().NumApps() - 1), 1 << 30}
			for _, m := range []*Market{live, twin} {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				m.ApplyDownloadDelta(written, func(id int32) int64 { return int64(id%5) + 1 })
			}
		}
		full := twin.Export()
		for k := 0; k < owners; k++ {
			a, b := fromLive[k].PartitionMarket(live), fromDense[k].Partition(full)
			if a.Store() != b.Store() || a.Day() != b.Day() || a.NumApps() != b.NumApps() ||
				a.TotalDownloads() != b.TotalDownloads() || len(a.chunkVer) != len(b.chunkVer) || a.ids == nil {
				t.Fatalf("day %d owner %d: headers differ: %s/%s day %d/%d apps %d/%d total %d/%d chunks %d/%d",
					day, k, a.Store(), b.Store(), a.Day(), b.Day(), a.NumApps(), b.NumApps(),
					a.TotalDownloads(), b.TotalDownloads(), len(a.chunkVer), len(b.chunkVer))
			}
			if !slices.Equal(a.CategoryNames(), b.CategoryNames()) || !slices.Equal(a.DeveloperNames(), b.DeveloperNames()) {
				t.Fatalf("day %d owner %d: name tables differ", day, k)
			}
			for i := 0; i < a.NumApps(); i++ {
				if a.ID(i) != b.ID(i) || a.App(i) != b.App(i) || a.Downloads(i) != b.Downloads(i) || a.RowVer(i) != b.RowVer(i) {
					t.Fatalf("day %d owner %d row %d: live (%d %+v %d v%d), dense (%d %+v %d v%d)", day, k, i,
						a.ID(i), a.App(i), a.Downloads(i), a.RowVer(i), b.ID(i), b.App(i), b.Downloads(i), b.RowVer(i))
				}
			}
			for c := 0; c < len(a.chunkVer); c++ {
				if a.chunkVer[c] != b.chunkVer[c] {
					t.Fatalf("day %d owner %d chunk %d: version %d live, %d dense", day, k, c, a.chunkVer[c], b.chunkVer[c])
				}
			}
			if pa, pb := prevLive[k], prevDense[k]; pa != nil {
				for c := range a.vers {
					sa := c < len(pa.vers) && &a.vers[c][0] == &pa.vers[c][0]
					sb := c < len(pb.vers) && &b.vers[c][0] == &pb.vers[c][0]
					da := c < len(pa.dls) && &a.dls[c][0] == &pa.dls[c][0]
					db := c < len(pb.dls) && &b.dls[c][0] == &pb.dls[c][0]
					if sa != sb || da != db || sa != da {
						t.Fatalf("day %d owner %d chunk %d: shared with its predecessor live vers=%v dls=%v, dense vers=%v dls=%v",
							day, k, c, sa, da, sb, db)
					}
					if sa {
						sharedChunks++
					} else {
						freshChunks++
					}
				}
				for c := range a.apps {
					sa := c < len(pa.apps) && &a.apps[c][0] == &pa.apps[c][0]
					sb := c < len(pb.apps) && &b.apps[c][0] == &pb.apps[c][0]
					if sa != sb {
						t.Fatalf("day %d owner %d row chunk %d: shared with its predecessor live=%v dense=%v", day, k, c, sa, sb)
					}
				}
			}
			prevLive[k], prevDense[k] = a, b
		}
	}
	if sharedChunks == 0 || freshChunks == 0 {
		t.Fatalf("%d chunks shared and %d copied over %d days: the sharing comparison saw only one outcome", sharedChunks, freshChunks, days)
	}
	if live.lastExport != nil {
		t.Fatal("partitioning a market in place left it holding a dense export")
	}
}

// TestSparseIndexing pins the sparse/dense accessor contract used by the
// serving layer's ID resolution and cursor anchoring.
func TestSparseIndexing(t *testing.T) {
	dense := &Export{n: 10}
	if dense.ids != nil {
		t.Fatal("dense export reports sparse")
	}
	if got := dense.IndexAtOrAfter(7); got != 7 {
		t.Fatalf("dense IndexAtOrAfter(7) = %d", got)
	}
	if got := dense.IndexAtOrAfter(99); got != 10 {
		t.Fatalf("dense IndexAtOrAfter(99) = %d", got)
	}
	if _, ok := dense.IndexOf(10); ok {
		t.Fatal("dense IndexOf(10) in a 10-app export")
	}

	sp := &Export{n: 4, ids: []int32{1, 5, 6, 9}}
	if got := sp.ID(2); got != 6 {
		t.Fatalf("ID(2) = %d", got)
	}
	cases := []struct{ id, want int }{{0, 0}, {1, 0}, {2, 1}, {5, 1}, {6, 2}, {7, 3}, {9, 3}, {10, 4}}
	for _, c := range cases {
		if got := sp.IndexAtOrAfter(int32(c.id)); got != c.want {
			t.Fatalf("IndexAtOrAfter(%d) = %d want %d", c.id, got, c.want)
		}
	}
	if i, ok := sp.IndexOf(5); !ok || i != 1 {
		t.Fatalf("IndexOf(5) = %d,%v", i, ok)
	}
	if _, ok := sp.IndexOf(4); ok {
		t.Fatal("IndexOf(4) found in {1,5,6,9}")
	}
	if _, ok := sp.IndexOf(-1); ok {
		t.Fatal("IndexOf(-1) found")
	}
}
