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

// TestPartitionUnionMatchesFull checks that N partitions of one market day
// cover the catalog exactly once with the whole-catalog export's per-app
// content, and that their totals sum to the dense total.
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
			pe := p.PartitionMarket(m)
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
	e0 := p.PartitionMarket(m)
	if err := m.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	e1 := p.PartitionMarket(m)

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

// TestPartitionMarketIsThePartition holds the incremental partition to a
// full copy: four owners over thirty days of arrivals, updates and ingested
// downloads (on apps the owner holds and on apps it does not), one market
// partitioned day after day and its twin partitioned afresh each day by a
// partitioner with no previous export, and read whole. Each day every
// owner's two exports agree row for row, header for header and chunk
// version for chunk version, and each row is the twin's whole-catalog row.
// Every export of one day, whole and each owner's, keeps that day's one row
// array rather than a copy, and a count chunk is shared with its
// predecessor exactly when none of its rows changed — the copy-on-write
// outcome, not only the content, is pinned. The market partitioned in place
// never took a whole-catalog export.
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
	var parts [owners]*Partitioner
	for k := range parts {
		parts[k] = NewPartitioner(ownsMod(int32(k), owners))
	}
	var prev [owners]*Export
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
		whole := fullExport(twin)
		// The two markets share each day's simulation, so every export of the
		// day, whole or an owner's, reads that day's one row array.
		rows := live.Catalog().Apps
		if !sameRows(whole.rows, rows) || !sameRows(twin.Catalog().Apps, rows) {
			t.Fatalf("day %d: the whole-catalog export or the twin does not read the day's row array", day)
		}
		for k := 0; k < owners; k++ {
			a, b := parts[k].PartitionMarket(live), NewPartitioner(ownsMod(int32(k), owners)).PartitionMarket(twin)
			if !sameRows(a.rows, rows) || !sameRows(b.rows, rows) {
				t.Fatalf("day %d owner %d: an export copied the day's rows", day, k)
			}
			if a.Store() != b.Store() || a.Day() != b.Day() || a.NumApps() != b.NumApps() ||
				a.TotalDownloads() != b.TotalDownloads() || !slices.Equal(a.chunkVer, b.chunkVer) || a.ids == nil {
				t.Fatalf("day %d owner %d: headers differ: %s/%s day %d/%d apps %d/%d total %d/%d chunks %d/%d",
					day, k, a.Store(), b.Store(), a.Day(), b.Day(), a.NumApps(), b.NumApps(),
					a.TotalDownloads(), b.TotalDownloads(), len(a.chunkVer), len(b.chunkVer))
			}
			if !slices.Equal(a.CategoryNames(), b.CategoryNames()) || !slices.Equal(a.DeveloperNames(), b.DeveloperNames()) {
				t.Fatalf("day %d owner %d: name tables differ", day, k)
			}
			exportEqual(t, a, b)
			for i := 0; i < a.NumApps(); i++ {
				g := int(a.ID(i))
				if a.App(i) != whole.App(g) || a.Downloads(i) != whole.Downloads(g) || a.RowVer(i) != whole.RowVer(g) {
					t.Fatalf("day %d owner %d row %d: app %d is not the whole-catalog export's", day, k, i, g)
				}
			}
			if p := prev[k]; p != nil {
				for c := range a.vers {
					lo, hi := chunkSpan(c, a.NumApps())
					sv := c < len(p.vers) && &a.vers[c][0] == &p.vers[c][0]
					sd := c < len(p.dls) && &a.dls[c][0] == &p.dls[c][0]
					if want := unchangedSince(p, a, lo, hi); sv != want || sd != want {
						t.Fatalf("day %d owner %d chunk %d: shared with its predecessor vers=%v dls=%v, rows unchanged=%v",
							day, k, c, sv, sd, want)
					}
					if sv {
						sharedChunks++
					} else {
						freshChunks++
					}
				}
			}
			prev[k] = a
		}
	}
	if sharedChunks == 0 || freshChunks == 0 {
		t.Fatalf("%d chunks shared and %d copied over %d days: the sharing comparison saw only one outcome", sharedChunks, freshChunks, days)
	}
	if live.whole.prev != nil {
		t.Fatal("partitioning a market in place left it holding a whole-catalog export")
	}
}

// sameRows reports whether rows is the whole of the row array day, with no
// room past its end for an append to write into.
func sameRows(rows, day []catalog.App) bool {
	return len(rows) == len(day) && cap(rows) == len(rows) && len(day) > 0 && &rows[0] == &day[0]
}

// unchangedSince reports whether rows [lo, hi) of e all exist in prev with
// their row versions unchanged.
func unchangedSince(prev, e *Export, lo, hi int) bool {
	if hi > prev.NumApps() {
		return false
	}
	for i := lo; i < hi; i++ {
		if e.RowVer(i) != prev.RowVer(i) {
			return false
		}
	}
	return true
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
