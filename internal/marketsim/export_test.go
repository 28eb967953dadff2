package marketsim

import (
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
		if a.App(i) != b.App(i) {
			t.Fatalf("day %d app %d: rows differ: %+v vs %+v", a.Day(), i, a.App(i), b.App(i))
		}
		if a.Downloads(i) != b.Downloads(i) {
			t.Fatalf("day %d app %d: downloads %d vs %d", a.Day(), i, a.Downloads(i), b.Downloads(i))
		}
	}
}

// TestDeltaExportMatchesFullExport is the tentpole's safety net: the
// chunk-sharing export must be byte-for-byte the export a full copy would
// have produced, every day, through arrivals, updates, price changes, and
// downloads.
func TestDeltaExportMatchesFullExport(t *testing.T) {
	const days = 12
	cfgDelta := exportTestConfig(0.10, days)
	cfgFull := cfgDelta
	cfgFull.FullExport = true

	md, err := New(cfgDelta, 42)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := New(cfgFull, 42)
	if err != nil {
		t.Fatal(err)
	}
	exportEqual(t, md.Export(), mf.Export())
	for d := 1; d < days; d++ {
		if err := md.Step(); err != nil {
			t.Fatal(err)
		}
		if err := mf.Step(); err != nil {
			t.Fatal(err)
		}
		exportEqual(t, md.Export(), mf.Export())
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

// TestSeedDeterminismAcrossModes proves the dirty tracking and the
// DisableSeries/FullExport knobs are observation-only: the simulated
// market is identical for a fixed seed regardless of their settings.
func TestSeedDeterminismAcrossModes(t *testing.T) {
	const days = 8
	base := exportTestConfig(0.10, days)
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.FullExport = true },
		func(c *Config) { c.DisableSeries = true },
		func(c *Config) { c.FullExport = true; c.DisableSeries = true },
	}
	var ref *Export
	for vi, mod := range variants {
		cfg := base
		mod(&cfg)
		m, err := New(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < days; d++ {
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
