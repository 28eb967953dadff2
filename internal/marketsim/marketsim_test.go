package marketsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/stats"
)

func smallConfig() Config {
	cfg := DefaultConfig(catalog.Profiles["anzhi"].Scale(0.1))
	cfg.Days = 20
	return cfg
}

func TestRunProducesSeries(t *testing.T) {
	m, err := New(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Days) != 20 {
		t.Fatalf("series has %d days, want 20", len(s.Days))
	}
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.DownloadsLast <= sum.DownloadsFirst {
		t.Fatalf("downloads did not grow: %d -> %d", sum.DownloadsFirst, sum.DownloadsLast)
	}
	if sum.AppsLast < sum.AppsFirst {
		t.Fatalf("apps shrank: %d -> %d", sum.AppsFirst, sum.AppsLast)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() []int64 {
		m, err := New(smallConfig(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Downloads()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("app counts differ across same-seed runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("downloads differ at app %d", i)
		}
	}
}

func TestDailyVolumeMatchesProfile(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := s.Summarize()
	want := float64(cfg.Profile.Users) * cfg.Profile.DownloadsPerUser / float64(cfg.Days+cfg.WarmupDays)
	if math.Abs(sum.DailyDownloads-want) > want*0.15 {
		t.Fatalf("daily downloads %v, want ~%v", sum.DailyDownloads, want)
	}
}

func TestParetoEffectEmerges(t *testing.T) {
	// Figure 2's headline: top 10% of apps account for most downloads.
	m, err := New(smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	curve := s.Last().Curve()
	share := stats.TopShare(curve.Downloads, 0.10)
	if share < 0.55 {
		t.Fatalf("top-10%% share = %v, want a strong Pareto effect", share)
	}
}

func TestTrunkSlopeNearProfile(t *testing.T) {
	cfg := DefaultConfig(catalog.Profiles["anzhi"].Scale(0.25))
	cfg.Days = 30
	m, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	curve := s.Last().Curve()
	slope := curve.TrunkExponent(0.01, 0.3)
	if slope < 0.6*cfg.Profile.ZipfGlobal || slope > 1.6*cfg.Profile.ZipfGlobal {
		t.Fatalf("trunk slope %v far from profile zr %v", slope, cfg.Profile.ZipfGlobal)
	}
}

func TestMostAppsNeverUpdated(t *testing.T) {
	// Figure 4: >80% of apps see no update within the period.
	cfg := smallConfig()
	cfg.Days = 60
	m, err := New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := s.UpdateCounts()
	zero := 0
	for _, c := range counts {
		if c == 0 {
			zero++
		}
	}
	if frac := float64(zero) / float64(len(counts)); frac < 0.7 {
		t.Fatalf("only %.0f%% of apps un-updated; want most", frac*100)
	}
}

func TestPaidStream(t *testing.T) {
	cfg := DefaultConfig(catalog.Profiles["slideme"])
	cfg.Days = 30
	m, err := New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	cat := m.Catalog()
	dl := m.Downloads()
	var freeTotal, paidTotal int64
	var prices, paidDl []float64
	for i := range cat.Apps {
		if cat.Apps[i].Pricing == catalog.Paid {
			paidTotal += dl[i]
			prices = append(prices, cat.Apps[i].Price)
			paidDl = append(paidDl, float64(dl[i]))
		} else {
			freeTotal += dl[i]
		}
	}
	if paidTotal == 0 {
		t.Fatal("paid apps received no downloads")
	}
	if paidTotal >= freeTotal/5 {
		t.Fatalf("paid volume %d not far below free volume %d", paidTotal, freeTotal)
	}
	// Figure 12: negative correlation between price and downloads.
	if r := stats.Pearson(prices, paidDl); r >= 0 {
		t.Fatalf("price-download correlation %v, want negative", r)
	}
}

func TestStepBeyondPeriodFails(t *testing.T) {
	m, err := New(smallConfig(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil {
		t.Fatal("Step past the configured period succeeded")
	}
}

// TestNewValidation: New refuses, by field name, every configuration it
// cannot build a market over. The population rows used to panic in
// makeslice; a negative warmup silently built a market over a negative
// period.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Days", func(c *Config) { c.Days = 1 }},
		{"WarmupDays", func(c *Config) { c.WarmupDays = -500 }},
		{"Users", func(c *Config) { c.Profile.Users = -1 }},
		{"Users", func(c *Config) { c.Profile.Users = math.MaxInt32 + 1 }},
		{"DownloadsPerUser", func(c *Config) { c.Profile.DownloadsPerUser = -3 }},
		{"DownloadsPerUser", func(c *Config) { c.Profile.DownloadsPerUser = math.NaN() }},
		{"DownloadsPerUser", func(c *Config) { c.Profile.DownloadsPerUser = math.Inf(1) }},
		{"DownloadsPerUser", func(c *Config) { c.Profile.DownloadsPerUser = 1 << 31 }},
		// catalog.Generate's refusal, reported at the join.
		{"no apps", func(c *Config) { c.Profile.Apps = -1 }},
	} {
		cfg := smallConfig()
		tc.set(&cfg)
		m, err := New(cfg, 1)
		if err == nil || m != nil {
			t.Errorf("%s: New accepted %+v", tc.field, cfg)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %q does not name %s", err, tc.field)
		}
	}
	// The edges of what is valid build: nobody downloads anything.
	for _, set := range []func(*Config){
		func(c *Config) { c.Profile.Users = 0 },
		func(c *Config) { c.Profile.DownloadsPerUser = 0 },
		func(c *Config) { c.WarmupDays = 0 },
	} {
		cfg := smallConfig()
		set(&cfg)
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatalf("New refused %+v: %v", cfg, err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFetchAtMostOncePerUserStream(t *testing.T) {
	// The same free-stream user never downloads the same app twice; since
	// user state is internal, check the aggregate invariant instead: no
	// app collects more downloads than the user population.
	cfg := smallConfig()
	m, err := New(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range m.Downloads() {
		if d > int64(cfg.Profile.Users) {
			t.Fatalf("app %d has %d downloads from %d users", i, d, cfg.Profile.Users)
		}
	}
}

func TestCatalogStaysValid(t *testing.T) {
	m, err := New(smallConfig(), 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Catalog().Validate(); err != nil {
		t.Fatalf("catalog invalid after run: %v", err)
	}
}

func TestScheduleDrainsExactly(t *testing.T) {
	// Every scheduled free-stream event is consumed by the end of the
	// period: the sum of per-app downloads equals the per-user budgets
	// (minus the rare draws that failed after retry exhaustion) and never
	// exceeds them.
	cfg := smallConfig()
	m, err := New(cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, d := range m.Downloads() {
		total += d
	}
	budget := float64(cfg.Profile.Users) * cfg.Profile.DownloadsPerUser
	if float64(total) > budget*1.05 {
		t.Fatalf("downloads %d exceed the scheduled budget %v", total, budget)
	}
	if float64(total) < budget*0.9 {
		t.Fatalf("downloads %d fall far below the scheduled budget %v", total, budget)
	}
}

func TestWarmupMaturesDayZero(t *testing.T) {
	// With warmup, the day-0 snapshot must already hold a large share of
	// the final volume (the paper's stores carried years of history).
	cfg := smallConfig() // WarmupDays 60, Days 20
	m, err := New(cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := s.First().TotalDownloads()
	last := s.Last().TotalDownloads()
	frac := float64(first) / float64(last)
	want := float64(cfg.WarmupDays+1) / float64(cfg.WarmupDays+cfg.Days)
	if frac < want-0.1 || frac > want+0.1 {
		t.Fatalf("day-0 holds %.2f of final volume, want ~%.2f", frac, want)
	}
}

func TestCategoryBiasReshapesWithinCategory(t *testing.T) {
	// With ZipfCluster far below ZipfGlobal, within-category download
	// shares must be flatter than the raw appeal ordering implies: the
	// category head's share of its category shrinks.
	headShare := func(zc float64) float64 {
		prof := catalog.Profiles["anzhi"].Scale(0.1)
		prof.ZipfCluster = zc
		cfg := DefaultConfig(prof)
		cfg.Days = 15
		m, err := New(cfg, 31)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cat := m.Catalog()
		dl := m.Downloads()
		// Average, over categories with enough members, of the top app's
		// share of its category's downloads.
		var sum float64
		var n int
		for ci := range cat.Categories {
			var catTotal, best int64
			for _, id := range cat.Categories[ci].Apps {
				d := dl[int(id)]
				catTotal += d
				if d > best {
					best = d
				}
			}
			if catTotal > 100 {
				sum += float64(best) / float64(catTotal)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no populated categories")
		}
		return sum / float64(n)
	}
	flat := headShare(0.5)  // catBias ~0.36: flat within-category draws
	steep := headShare(2.1) // catBias 1.5: concentrated draws
	if flat >= steep {
		t.Fatalf("head share flat=%v not below steep=%v", flat, steep)
	}
}

// TestScheduleSizedExactly pins the download schedule's construction: New
// draws every per-user budget before it builds the schedule, which holds
// exactly the budgeted events at the population's bit width in exactly the
// words they fill — no append slack, no padding word — and neither the
// reordering nor the packing moves a random draw, so a same-seed market's
// downloads after five steps are what they were when the schedule was an
// []int32 grown by append (the hash below was taken from that code).
func TestScheduleSizedExactly(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	var budget int
	for _, k := range simOf(m).freeBudget {
		budget += int(k)
	}
	if simOf(m).schedule.len() != budget {
		t.Fatalf("schedule holds %d events for %d budgeted", simOf(m).schedule.len(), budget)
	}
	width := bits.Len(uint(cfg.Profile.Users - 1))
	if words := (budget*width + 63) / 64; int(simOf(m).schedule.width) != width || len(simOf(m).schedule.words) != words || cap(simOf(m).schedule.words) != words {
		t.Fatalf("schedule is %d words (cap %d) of %d-bit events, want %d words of %d-bit events for %d users",
			len(simOf(m).schedule.words), cap(simOf(m).schedule.words), simOf(m).schedule.width, words, width, cfg.Profile.Users)
	}
	seen := make([]int32, cfg.Profile.Users)
	for k := 0; k < simOf(m).schedule.len(); k++ {
		seen[simOf(m).schedule.at(k)]++
	}
	for u, k := range simOf(m).freeBudget {
		if seen[u] != k {
			t.Fatalf("user %d is scheduled %d times on a budget of %d", u, seen[u], k)
		}
	}
	for i := 0; i < 5; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	const want = 0xe8f65346cfff1551
	if got := hashDownloads(m); got != want {
		t.Fatalf("downloads after 5 steps hash to %#x, want %#x: the schedule or the RNG order moved", got, uint64(want))
	}
}

func hashDownloads(m *Market) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range m.Downloads() {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestNewIsGOMAXPROCSInvariant: New generates the catalog on a second
// goroutine, and the market it returns must not depend on whether that
// goroutine ran beside the first or was interleaved with it. Run under
// -race -count=10: the race detector checks that the two sides share
// nothing before the join.
func TestNewIsGOMAXPROCSInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) (*Export, uint64) {
		runtime.GOMAXPROCS(procs)
		m := soloBuild(t, smallConfig(), 42) // built here, not a view of an earlier test's
		day0 := m.Export()
		for i := 0; i < 5; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return day0, hashDownloads(m)
	}
	serial, serialHash := build(1)
	parallel, parallelHash := build(4)
	exportEqual(t, serial, parallel)
	if serialHash != parallelHash {
		t.Fatalf("downloads after 5 steps hash to %#x at GOMAXPROCS 1 and %#x at 4", serialHash, parallelHash)
	}
}
