package comments

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"planetapps/internal/catalog"
)

// benchCatalog is the catalog cmd/bench's rigs generate their comment
// population over (benchProfile(100000), seed 1).
func benchCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	const apps = 100_000
	c, err := catalog.Generate(catalog.Profile{
		Name: "bench", Apps: apps, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: float64(apps) / 2000,
		Users: apps, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// digest folds a population, every field of every comment in order, into
// one hash.
func digest(cs []Comment) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(len(cs)))
	for _, c := range cs {
		u64(uint64(c.User))
		u64(uint64(c.App))
		u64(uint64(c.Rating))
		u64(uint64(c.Time.UnixNano()))
	}
	return h.Sum64()
}

// TestGenerateDigests pins the populations Generate produces — which comments
// and in which order, ties included — to digests taken while it ordered them
// with a stable sort on time.Time. Every comment stream served and every
// crawl database on record is a function of that order; a digest that moves
// is never regenerated to make this pass.
func TestGenerateDigests(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *catalog.Catalog
		users int
		seed  uint64
		n     int
		want  uint64
	}{
		{"anzhi x0.1", testCatalog(t), 4000, 11, 16778, 0x4c887889040a413a},
		{"bench", benchCatalog(t), 20000, 2, 85324, 0x51a46c3c5b3b7e49},
	} {
		cs, err := Generate(tc.c, DefaultGenConfig(tc.users), tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digest(cs); len(cs) != tc.n || got != tc.want {
			t.Errorf("%s: %d comments digest %#x, want %d digest %#x", tc.name, len(cs), got, tc.n, tc.want)
		}
		if cap(cs) != len(cs) {
			t.Errorf("%s: %d comments returned in room for %d", tc.name, len(cs), cap(cs))
		}
	}
}

// BenchmarkGenerate times the population cmd/bench's comment-carrying rigs
// build: the bench catalog, 20,000 commenting users.
func BenchmarkGenerate(b *testing.B) {
	c := benchCatalog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c, DefaultGenConfig(20000), 2); err != nil {
			b.Fatal(err)
		}
	}
}
