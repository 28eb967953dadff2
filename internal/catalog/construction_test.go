package catalog

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"
)

// benchProfile is cmd/bench's catalog (and marketsim's retentionConfig): the
// one every rig build in the benchmark generates.
func benchProfile(apps int) Profile {
	return Profile{
		Name: "bench", Apps: apps, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: float64(apps) / 2000,
		Users: apps, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	}
}

// digest folds everything Generate produces — every app field, every name,
// every membership list in its order — into one hash.
func digest(c *Catalog) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	ids := func(apps []AppID) {
		u64(uint64(len(apps)))
		for _, id := range apps {
			u64(uint64(id))
		}
	}
	str(c.Name)
	u64(uint64(c.Start.UnixNano()))
	u64(uint64(len(c.Apps)))
	for i := range c.Apps {
		a := &c.Apps[i]
		u64(uint64(a.ID))
		u64(uint64(a.Dev))
		u64(uint64(a.Category))
		u64(uint64(a.Pricing))
		u64(math.Float64bits(a.Price))
		if a.HasAds {
			u64(1)
		} else {
			u64(0)
		}
		u64(math.Float64bits(a.SizeMB))
		u64(uint64(a.AddedDay))
		u64(math.Float64bits(a.UpdateRate))
		u64(uint64(a.Versions))
		u64(math.Float64bits(a.Quality))
	}
	u64(uint64(len(c.Categories)))
	for i := range c.Categories {
		u64(uint64(c.Categories[i].ID))
		str(c.Categories[i].Name)
		ids(c.Categories[i].Apps)
	}
	u64(uint64(len(c.Developers)))
	for i := range c.Developers {
		u64(uint64(c.Developers[i].ID))
		str(c.Developers[i].Name)
		ids(c.Developers[i].Apps)
	}
	return h.Sum64()
}

// TestGenerateDigests pins what Generate produces, field for field and list
// order for list order, to digests taken before its indexes were built by
// counting: how a catalog is built may change, the catalog may not. A digest
// that moves means markets, comment populations and crawl databases on record
// no longer reproduce; it is never regenerated to make this pass.
func TestGenerateDigests(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		seed uint64
		want uint64
	}{
		{Profiles["1mobile"].Scale(0.05), 1, 0xa7f5a58a2c0a9a73},
		{Profiles["anzhi"].Scale(0.05), 1, 0xba48c3311963c84f},
		{Profiles["appchina"].Scale(0.05), 1, 0x4670e2d484e058ec},
		{Profiles["slideme"].Scale(0.05), 1, 0x90f5bcbe24a97a1f},
		{benchProfile(100_000), 1, 0x4a5966fd9f7dbc03},
	} {
		c, err := Generate(tc.p, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name, err)
		}
		if got := digest(c); got != tc.want {
			t.Errorf("%s (%d apps, seed %d): catalog digest %#x, want %#x", tc.p.Name, tc.p.Apps, tc.seed, got, tc.want)
		}
	}
}

// TestBuiltAtFinalSize: Generate counts before it fills, so every membership
// list is exactly as long as its members are many — an AddApp then moves the
// list it extends and cannot write into the list cut next to it — and a
// catalog costs allocations by the handful, not one name and one list per
// developer (64k of the 114k a bench market took to build).
func TestBuiltAtFinalSize(t *testing.T) {
	p := benchProfile(20_000)
	c, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Categories {
		if apps := c.Categories[i].Apps; cap(apps) != len(apps) {
			t.Fatalf("category %d: %d members in room for %d", i, len(apps), cap(apps))
		}
	}
	for i := range c.Developers {
		if apps := c.Developers[i].Apps; cap(apps) != len(apps) {
			t.Fatalf("developer %d: %d apps in room for %d", i, len(apps), cap(apps))
		}
	}
	if len(c.Developers) < p.Apps/10 {
		t.Fatalf("only %d developers over %d apps: the bound below would not notice one allocation each", len(c.Developers), p.Apps)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(p, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("Generate: %.0f allocations for %d apps and %d developers", allocs, p.Apps, len(c.Developers))
	}

	// Lists cut from one array stay apart when they grow.
	const cat = 0
	next := append([]AppID(nil), c.Categories[cat+1].Apps...)
	id := c.AddApp(App{Dev: 0, Category: cat, Quality: 1e-9})
	if got := c.Categories[cat].Apps; got[len(got)-1] != id {
		t.Fatalf("the lowest-quality arrival is not last in category %d", cat)
	}
	for i, want := range next {
		if c.Categories[cat+1].Apps[i] != want {
			t.Fatalf("AddApp to category %d overwrote member %d of category %d", cat, i, cat+1)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAppRowIsUnpadded: a row is 64 bytes, its two one-byte fields packed
// into the word the ids and the category share. Five markets' catalogs, a
// reference export and a fleet's shard partitions all hold rows, so the 8
// bytes of padding a one-byte field between two float64s costs is paid on
// every app several times over.
func TestAppRowIsUnpadded(t *testing.T) {
	if size := unsafe.Sizeof(App{}); size > 64 {
		t.Fatalf("catalog.App is %d bytes, want <= 64: a field reorder reopened padding", size)
	}
}
