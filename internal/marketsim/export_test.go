package marketsim

import (
	"slices"
	"testing"

	"planetapps/internal/catalog"
)

func exportTestConfig(scale float64, days int) Config {
	cfg := DefaultConfig(catalog.Profiles["slideme"].Scale(scale))
	cfg.Days = days
	return cfg
}

// exportEqual deep-compares two exports through the public accessors.
func exportEqual(t *testing.T, a, b *Export) {
	t.Helper()
	if a.Day() != b.Day() || a.NumApps() != b.NumApps() || a.TotalDownloads() != b.TotalDownloads() {
		t.Fatalf("header mismatch: day %d/%d apps %d/%d total %d/%d",
			a.Day(), b.Day(), a.NumApps(), b.NumApps(), a.TotalDownloads(), b.TotalDownloads())
	}
	for i := 0; i < a.NumApps(); i++ {
		if a.ID(i) != b.ID(i) || a.RowVer(i) != b.RowVer(i) {
			t.Fatalf("day %d row %d: app %d v%d vs app %d v%d", a.Day(), i, a.ID(i), a.RowVer(i), b.ID(i), b.RowVer(i))
		}
		if a.App(i) != b.App(i) {
			t.Fatalf("day %d app %d: rows differ: %+v vs %+v", a.Day(), i, a.App(i), b.App(i))
		}
		if a.Downloads(i) != b.Downloads(i) {
			t.Fatalf("day %d app %d: downloads %d vs %d", a.Day(), i, a.Downloads(i), b.Downloads(i))
		}
	}
}

// fullExport is the full-copy reference export of m: a whole-catalog
// partitioner with no previous export to share chunks with copies every
// row out of the market.
func fullExport(m *Market) *Export { return NewPartitioner(nil).PartitionMarket(m) }

// TestDeltaExportMatchesFullExport is the day-roll's safety net: the
// chunk-sharing export must be the export a full copy produces — rows,
// downloads, row and chunk versions — every day, through arrivals,
// updates, price changes, downloads and ingested download deltas.
func TestDeltaExportMatchesFullExport(t *testing.T) {
	const days = 12
	lowChurn := retentionConfig(4000) // most chunks sit out any one day
	lowChurn.Profile.NewAppsPerDay = 4
	shared := 0
	for _, cfg := range []Config{exportTestConfig(0.10, days), lowChurn} {
		m, err := New(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		var prev *Export
		for d := 0; d < days; d++ {
			if d > 0 {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				m.ApplyDownloadDelta([]int32{int32(d), int32(7 * d)}, func(id int32) int64 { return int64(id%3) + 1 })
			}
			delta, full := m.Export(), fullExport(m)
			exportEqual(t, delta, full)
			if delta.ids != nil || !slices.Equal(delta.chunkVer, full.chunkVer) {
				t.Fatalf("%s day %d: the delta export is sparse or its chunk versions differ from a full copy's", cfg.Profile.Name, d)
			}
			for c := range delta.vers {
				if prev != nil && c < len(prev.vers) && &delta.vers[c][0] == &prev.vers[c][0] {
					shared++
				}
			}
			prev = delta
		}
	}
	if shared == 0 {
		t.Fatal("no chunk was shared over either period: the comparison never saw a delta export")
	}
}

// TestDirtySetMatchesBruteForceDiff checks the observation the serving
// layer's carry-forward rests on: RowVer(i) changed between consecutive
// exports if and only if app i's servable content (catalog row or
// download count) actually changed; likewise chunk versions for chunks.
func TestDirtySetMatchesBruteForceDiff(t *testing.T) {
	const days = 10
	m, err := New(exportTestConfig(0.10, days), 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Export()
	for d := 1; d < days; d++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		cur := m.Export()
		// Per-row: dirty ⟺ content changed (apps present in both).
		for i := 0; i < prev.NumApps(); i++ {
			changed := prev.App(i) != cur.App(i) || prev.Downloads(i) != cur.Downloads(i)
			dirty := prev.RowVer(i) != cur.RowVer(i)
			if changed != dirty {
				t.Fatalf("day %d app %d: changed=%v dirty=%v (rowver %d -> %d)",
					d, i, changed, dirty, prev.RowVer(i), cur.RowVer(i))
			}
		}
		// Per-chunk: a chunk reported unchanged must have identical content
		// and identical length (no arrivals landed in it).
		for c := 0; c < len(prev.chunkVer) && c < len(cur.chunkVer); c++ {
			if !cur.ChunkUnchanged(prev, c) {
				continue
			}
			lo := c * ExportChunk
			hi := lo + ExportChunk
			if hi > prev.NumApps() {
				hi = prev.NumApps()
			}
			for i := lo; i < hi; i++ {
				if prev.App(i) != cur.App(i) || prev.Downloads(i) != cur.Downloads(i) {
					t.Fatalf("day %d chunk %d claimed unchanged but app %d differs", d, c, i)
				}
			}
		}
		prev = cur
	}
}

// TestVersionSumTracksChunks ensures the listing-page cache key is sound:
// equal VersionSum over a page's chunk range implies every row on the
// page is unchanged.
func TestVersionSumTracksChunks(t *testing.T) {
	const days = 8
	m, err := New(exportTestConfig(0.10, days), 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Export()
	const page = 100 // rows per listing page, as the storeserver defaults
	for d := 1; d < days; d++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		cur := m.Export()
		if cur.NumApps() == prev.NumApps() {
			for lo := 0; lo < cur.NumApps(); lo += page {
				hi := lo + page
				if hi > cur.NumApps() {
					hi = cur.NumApps()
				}
				if cur.VersionSum(lo, hi) != prev.VersionSum(lo, hi) {
					continue // page changed; nothing to assert
				}
				for i := lo; i < hi; i++ {
					if prev.App(i) != cur.App(i) || prev.Downloads(i) != cur.Downloads(i) {
						t.Fatalf("day %d page [%d,%d): equal VersionSum but app %d differs", d, lo, hi, i)
					}
				}
			}
		}
		prev = cur
	}
}

// TestExportSharesChunksAcrossDays verifies sharing actually happens: at
// default churn the overwhelming majority of a day's rows are untouched,
// so consecutive exports must report many unchanged chunks — the property
// the ≥5x day-roll speedup comes from.
func TestExportSharesChunksAcrossDays(t *testing.T) {
	const days = 6
	// A crawl-realistic regime: daily download volume a small fraction of
	// the catalog (Users*DownloadsPerUser/Days ≈ 80 of 4000 apps), so most
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
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Export()
	for d := 1; d < days; d++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		cur := m.Export()
		shared := 0
		n := len(prev.chunkVer)
		if cn := len(cur.chunkVer); cn < n {
			n = cn
		}
		for c := 0; c < n; c++ {
			if cur.ChunkUnchanged(prev, c) {
				shared++
			}
		}
		if n >= 4 && shared == 0 {
			t.Fatalf("day %d: no chunks shared out of %d — delta export not engaging", d, n)
		}
		prev = cur
	}
}

// TestExportIdempotentWithoutStep checks that exporting twice with no
// intervening step shares every chunk: nothing changed, nothing copies.
func TestExportIdempotentWithoutStep(t *testing.T) {
	m, err := New(exportTestConfig(0.10, 4), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	a := m.Export()
	b := m.Export()
	exportEqual(t, a, b)
	for c := 0; c < len(a.chunkVer); c++ {
		if !b.ChunkUnchanged(a, c) {
			t.Fatalf("chunk %d not shared across back-to-back exports", c)
		}
	}
}

// TestSeedDeterminismAcrossModes proves the dirty tracking, daily
// exports and the DisableSeries knob are observation-only: the simulated
// market is identical for a fixed seed whether or not it exported every
// day and whatever the knob's setting.
func TestSeedDeterminismAcrossModes(t *testing.T) {
	const days = 8
	base := exportTestConfig(0.10, days)
	variants := []struct{ disableSeries, daily bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
	var ref *Export
	for vi, v := range variants {
		cfg := base
		cfg.DisableSeries = v.disableSeries
		m, err := New(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
			if v.daily {
				m.Export()
			}
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		e := m.Export()
		if vi == 0 {
			ref = e
			continue
		}
		exportEqual(t, ref, e)
	}
}
