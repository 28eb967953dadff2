package marketsim

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"planetapps/internal/catalog"
)

// sharesGenesis reports whether two markets read one schedule in place.
func sharesGenesis(a, b *Market) bool {
	return len(a.schedule.words) > 0 && len(b.schedule.words) > 0 &&
		&a.schedule.words[0] == &b.schedule.words[0]
}

// sharesCatalog reports whether two markets read one array of catalog rows.
func sharesCatalog(a, b *Market) bool {
	return len(a.cat.Apps) > 0 && len(b.cat.Apps) > 0 && &a.cat.Apps[0] == &b.cat.Apps[0]
}

// dayZeroAndFive is what a market is compared by: its day-0 export and the
// hash of its downloads five steps on.
func dayZeroAndFive(t *testing.T, m *Market) (*Export, uint64) {
	t.Helper()
	day0 := m.Export()
	for i := 0; i < 5; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return day0, hashDownloads(m)
}

// soloBuild is New from an emptied memo: the market as it was built before
// there was one.
func soloBuild(t *testing.T, cfg Config, seed uint64) *Market {
	t.Helper()
	forgetGenesis()
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGenesisHitIsIndistinguishable: a market that took its genesis from the
// memo is the market an emptied memo builds, for every Config and Profile
// field outside the key; and each of the five key fields, varied alone,
// misses.
func TestGenesisHitIsIndistinguishable(t *testing.T) {
	const seed = 42
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"nothing", func(c *Config) {}},
		{"Days", func(c *Config) { c.Days = 33 }},
		{"WarmupDays", func(c *Config) { c.WarmupDays = 7 }},
		{"Categories", func(c *Config) { c.Profile.Categories = 11 }},
		{"PaidFraction", func(c *Config) { c.Profile.PaidFraction = 0.3 }},
		{"ClusterP", func(c *Config) { c.Profile.ClusterP = 0.5 }},
		{"NewAppsPerDay", func(c *Config) { c.Profile.NewAppsPerDay = 9 }},
		{"DisableSeries", func(c *Config) { c.DisableSeries = true }},
		{"FullExport", func(c *Config) { c.FullExport = true }},
	} {
		cfg := smallConfig()
		tc.set(&cfg)
		first := soloBuild(t, smallConfig(), seed)
		hit, err := New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sharesGenesis(first, hit) {
			t.Fatalf("%s: a market differing from the last built only outside the key drew its own genesis", tc.field)
		}
		cold := soloBuild(t, cfg, seed)
		if sharesGenesis(first, cold) {
			t.Fatalf("%s: the emptied memo served the genesis it had forgotten", tc.field)
		}
		hitDay0, hitHash := dayZeroAndFive(t, hit)
		coldDay0, coldHash := dayZeroAndFive(t, cold)
		exportEqual(t, hitDay0, coldDay0)
		if hitHash != coldHash {
			t.Fatalf("%s: downloads after 5 steps hash to %#x on a memo hit, %#x built cold", tc.field, hitHash, coldHash)
		}
	}

	for _, tc := range []struct {
		field string
		seed  uint64
		set   func(*Config)
	}{
		{"seed", seed + 1, func(c *Config) {}},
		{"Apps", seed, func(c *Config) { c.Profile.Apps++ }},
		{"ZipfGlobal", seed, func(c *Config) { c.Profile.ZipfGlobal += 0.1 }},
		{"Users", seed, func(c *Config) { c.Profile.Users++ }},
		{"DownloadsPerUser", seed, func(c *Config) { c.Profile.DownloadsPerUser += 0.5 }},
	} {
		cfg := smallConfig()
		tc.set(&cfg)
		first := soloBuild(t, smallConfig(), seed)
		miss, err := New(cfg, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if sharesGenesis(first, miss) {
			t.Fatalf("%s: a market with another key was served the last one's genesis", tc.field)
		}
		cold := soloBuild(t, cfg, tc.seed)
		missDay0, missHash := dayZeroAndFive(t, miss)
		coldDay0, coldHash := dayZeroAndFive(t, cold)
		exportEqual(t, missDay0, coldDay0)
		if missHash != coldHash {
			t.Fatalf("%s: downloads after 5 steps hash to %#x after a miss, %#x built cold", tc.field, missHash, coldHash)
		}
	}
}

// TestCatalogHitIsIndistinguishable: a market that read its catalog from the
// memo is the market an emptied memo builds, for every Config field outside
// the profile; the seed and each Profile field, varied alone, miss.
func TestCatalogHitIsIndistinguishable(t *testing.T) {
	const seed = 42
	type variant struct {
		field string
		seed  uint64
		set   func(*Config)
	}
	hits := []variant{
		{"nothing", seed, func(c *Config) {}},
		{"Days", seed, func(c *Config) { c.Days = 33 }},
		{"WarmupDays", seed, func(c *Config) { c.WarmupDays = 7 }},
		{"DisableSeries", seed, func(c *Config) { c.DisableSeries = true }},
		{"FullExport", seed, func(c *Config) { c.FullExport = true }},
	}
	misses := []variant{{"seed", seed + 1, func(c *Config) {}}}
	profile := reflect.TypeOf(catalog.Profile{})
	for i := 0; i < profile.NumField(); i++ {
		misses = append(misses, variant{profile.Field(i).Name, seed, func(c *Config) {
			// Moved off its value, still a profile New accepts.
			switch f := reflect.ValueOf(&c.Profile).Elem().Field(i); f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "'")
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float()/2 + 0.01)
			default:
				t.Fatalf("Profile.%s: no way to vary a %s", profile.Field(i).Name, f.Kind())
			}
		}})
	}
	for i, tc := range append(hits, misses...) {
		cfg := smallConfig()
		tc.set(&cfg)
		first := soloBuild(t, smallConfig(), seed)
		m, err := New(cfg, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if hit := i < len(hits); sharesCatalog(first, m) != hit {
			t.Fatalf("%s: shares the last market's catalog = %v, want %v", tc.field, !hit, hit)
		}
		cold := soloBuild(t, cfg, tc.seed)
		if sharesCatalog(first, cold) {
			t.Fatalf("%s: the emptied memo served the catalog it had forgotten", tc.field)
		}
		day0, hash := dayZeroAndFive(t, m)
		coldDay0, coldHash := dayZeroAndFive(t, cold)
		exportEqual(t, day0, coldDay0)
		if hash != coldHash {
			t.Fatalf("%s: downloads after 5 steps hash to %#x, %#x built cold", tc.field, hash, coldHash)
		}
	}
}

// TestSharedCatalogLifecycle: same-key markets read one catalog until one of
// them steps, which copies its own and retires the memo entry, so the next
// New of the key generates again and gets what a cold build gets.
func TestSharedCatalogLifecycle(t *testing.T) {
	const seed = 42
	cfg := smallConfig()
	a := soloBuild(t, cfg, seed)
	b, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesCatalog(a, b) {
		t.Fatal("two same-key markets built back to back generated a catalog each")
	}
	if err := a.Step(); err != nil {
		t.Fatal(err)
	}
	if sharesCatalog(a, b) || &a.cat.Categories[0] == &b.cat.Categories[0] || &a.cat.Developers[0] == &b.cat.Developers[0] {
		t.Fatal("a market that has stepped still reads the pristine rows or headers")
	}
	c, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if sharesCatalog(b, c) {
		t.Fatal("a New after a roll was served the retired catalog")
	}
	cold := soloBuild(t, cfg, seed)
	if !reflect.DeepEqual(c.Catalog(), cold.Catalog()) || !reflect.DeepEqual(b.Catalog(), cold.Catalog()) {
		t.Fatal("catalogs regenerated after a roll, or still shared, differ from a cold build's")
	}
	day0, hash := dayZeroAndFive(t, c)
	coldDay0, coldHash := dayZeroAndFive(t, cold)
	exportEqual(t, day0, coldDay0)
	if hash != coldHash {
		t.Fatalf("downloads after 5 steps hash to %#x, %#x built cold", hash, coldHash)
	}
}

// TestSameKeyMarketsShareNothingMutable steps two markets of one genesis on
// two goroutines, one of them also merging ingested downloads, beside a
// third that never steps. Run under -race -cpu 1,4 -count=10: the detector
// checks that what they share is only read. The market left alone is the
// market a solo run produces, and neither the arrivals the steppers append
// to their appeal nor their arrivals, version bumps and price drift in the
// catalog reach the one that stood still or the memo's pristine catalog.
func TestSameKeyMarketsShareNothingMutable(t *testing.T) {
	const (
		seed = 42
		days = 20
	)
	cfg := smallConfig()
	cfg.Days = days + 1
	cfg.Profile.NewAppsPerDay = 3  // outside the genesis key; makes every run see arrivals
	cfg.Profile.PaidFraction = 0.3 // and price drift
	run := func(m *Market, written bool) {
		for d := 0; d < days; d++ {
			if err := m.Step(); err != nil {
				t.Error(err)
				return
			}
			if written {
				m.ApplyDownloadDelta([]int32{0, 1, int32(d)}, func(int32) int64 { return 5 })
			}
		}
	}
	solo := soloBuild(t, cfg, seed)
	run(solo, false)

	untouched := soloBuild(t, cfg, seed)
	written, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	still, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesGenesis(untouched, written) || !sharesGenesis(untouched, still) {
		t.Fatal("same-key markets built back to back do not share a genesis")
	}
	if !sharesCatalog(untouched, written) || !sharesCatalog(untouched, still) {
		t.Fatal("same-key markets built back to back do not share a catalog")
	}
	catalogMemo.mu.Lock()
	pristine := catalogMemo.ent.v
	catalogMemo.mu.Unlock()
	if cap(still.appeal) != len(still.appeal) {
		t.Fatalf("New handed out the shared appeal with room for %d appends in place", cap(still.appeal)-len(still.appeal))
	}
	appeal0 := slices.Clone(still.appeal)

	var wg sync.WaitGroup
	for _, m := range []*Market{untouched, written} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(m, m == written)
		}()
	}
	wg.Wait()

	if got, want := hashDownloads(untouched), hashDownloads(solo); got != want {
		t.Fatalf("a market stepped beside a written same-key market hashes to %#x, alone to %#x", got, want)
	}
	if hashDownloads(written) == hashDownloads(solo) {
		t.Fatal("the ingested downloads left no mark: the comparison above proves nothing")
	}
	if len(untouched.appeal) <= len(appeal0) {
		t.Fatalf("no app arrived in %d days: the appeal check below would be vacuous", days)
	}
	if !slices.Equal(still.appeal, appeal0) {
		t.Fatal("arrivals in one market changed the appeal of another")
	}
	if !slices.Equal(untouched.appeal, solo.appeal) {
		t.Fatal("appeals after arrivals differ from a solo run's")
	}

	fresh, err := catalog.Generate(cfg.Profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	var bumped, drifted bool
	for i := range fresh.Apps {
		bumped = bumped || untouched.cat.Apps[i].Versions != fresh.Apps[i].Versions
		drifted = drifted || untouched.cat.Apps[i].Price != fresh.Apps[i].Price
	}
	if !bumped || !drifted {
		t.Fatalf("in %d days no version shipped (%v) or no price moved (%v): the catalog check below would be vacuous", days, !bumped, !drifted)
	}
	if !reflect.DeepEqual(still.Catalog(), fresh) || !reflect.DeepEqual(pristine, fresh) {
		t.Fatal("markets stepping beside it wrote into the catalog of a market that stood still")
	}
}

// TestConcurrentNewOverDistinctKeys: sixteen goroutines build markets over
// four seeds at once — callers of one key coalescing on its entry, callers
// of different keys replacing it under each other — and every market is the
// one a solo build of its seed gives.
func TestConcurrentNewOverDistinctKeys(t *testing.T) {
	const (
		seeds    = 4
		builders = 16
	)
	cfg := smallConfig()
	cfg.FullExport = true // day-0 exports taken below share nothing with the steps
	var wantDay0 [seeds]*Export
	var wantHash [seeds]uint64
	for s := range wantDay0 {
		wantDay0[s], wantHash[s] = dayZeroAndFive(t, soloBuild(t, cfg, uint64(s)))
	}
	forgetGenesis()
	var built [builders]*Market
	var wg sync.WaitGroup
	for i := range built {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(cfg, uint64(i%seeds))
			if err != nil {
				t.Error(err)
				return
			}
			built[i] = m
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, m := range built {
		day0, hash := dayZeroAndFive(t, m)
		exportEqual(t, day0, wantDay0[i%seeds])
		if hash != wantHash[i%seeds] {
			t.Fatalf("builder %d (seed %d): downloads after 5 steps hash to %#x, a solo build's to %#x",
				i, i%seeds, hash, wantHash[i%seeds])
		}
	}
}

// TestPanickedGenesisIsNotServed: an entry whose build panicked has spent
// its Once with nothing built. A later New of that key must draw for itself
// rather than be handed the empty entry.
func TestPanickedGenesisIsNotServed(t *testing.T) {
	const seed = 42
	cfg := smallConfig()
	wantDay0, wantHash := dayZeroAndFive(t, soloBuild(t, cfg, seed))

	e := &memoEntry[genesis]{}
	genesisMemo.mu.Lock()
	genesisMemo.key, genesisMemo.ent = genesisKeyOf(seed, cfg.Profile), e
	genesisMemo.mu.Unlock()
	func() {
		defer func() { _ = recover() }()
		e.once.Do(func() { panic("genesis build failed") })
	}()

	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if m.schedule.len() == 0 {
		t.Fatal("New was served the entry whose build panicked")
	}
	day0, hash := dayZeroAndFive(t, m)
	exportEqual(t, day0, wantDay0)
	if hash != wantHash {
		t.Fatalf("downloads after 5 steps hash to %#x, a solo build's to %#x", hash, wantHash)
	}
}

// BenchmarkMarketNew builds cmd/bench's market (retentionConfig at 100k
// apps and users: 8.2 M scheduled events). cold is the first market of a
// seed: B/op shows an int32 schedule kept (+33 MB) and ns/op a closure
// shuffle or a serial catalog build; run at -cpu 1,2, the second CPU is what
// the catalog goroutine uses; forgetGenesis empties both memos.
// second-of-a-seed is every later one built before any of them steps: it
// takes its genesis and its catalog from the memos and builds only its own
// tables and day-0 downloads.
func BenchmarkMarketNew(b *testing.B) {
	cfg := retentionConfig(100_000)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forgetGenesis()
			if _, err := New(cfg, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("second-of-a-seed", func(b *testing.B) {
		first, err := New(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := New(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if !sharesGenesis(first, m) || !sharesCatalog(first, m) {
				b.Fatal("the second market of a seed drew its own genesis or catalog")
			}
		}
	})
}
