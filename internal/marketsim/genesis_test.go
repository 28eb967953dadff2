package marketsim

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/snapshot"
)

// sharesGenesis reports whether two markets read one schedule in place.
func sharesGenesis(a, b *Market) bool {
	as, bs := simOf(a).schedule, simOf(b).schedule
	return len(as.words) > 0 && len(bs.words) > 0 && &as.words[0] == &bs.words[0]
}

// sharesDayZero reports whether two markets read one day-0 download vector.
func sharesDayZero(a, b *Market) bool {
	return len(a.downloads) > 0 && len(b.downloads) > 0 && &a.downloads[0] == &b.downloads[0]
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

// TestDayZeroHitIsIndistinguishable: a market that New handed out over the
// memo's day-0 market is the market an emptied memo builds; the seed and
// each field of Config and of its Profile, varied alone, miss.
func TestDayZeroHitIsIndistinguishable(t *testing.T) {
	const seed = 42
	type variant struct {
		field string
		seed  uint64
		cfg   Config
	}
	hit := variant{"nothing", seed, smallConfig()}
	misses := []variant{{"seed", seed + 1, smallConfig()}}
	var paths [][]int
	config := reflect.TypeOf(Config{})
	for i := 0; i < config.NumField(); i++ {
		if f := config.Field(i); f.Type.Kind() == reflect.Struct {
			for j := 0; j < f.Type.NumField(); j++ {
				paths = append(paths, []int{i, j})
			}
		} else {
			paths = append(paths, []int{i})
		}
	}
	for _, path := range paths {
		// Moved off its value, still a Config New accepts.
		cfg := smallConfig()
		switch f := reflect.ValueOf(&cfg).Elem().FieldByIndex(path); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float()/2 + 0.01)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Config.%s: no way to vary a %s", config.FieldByIndex(path).Name, f.Kind())
		}
		misses = append(misses, variant{config.FieldByIndex(path).Name, seed, cfg})
	}
	for i, tc := range append([]variant{hit}, misses...) {
		first := soloBuild(t, smallConfig(), seed)
		m, err := New(tc.cfg, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if sharesDayZero(first, m) != (i == 0) {
			t.Fatalf("%s: shares the last market's day 0 = %v, want %v", tc.field, i != 0, i == 0)
		}
		cold := soloBuild(t, tc.cfg, tc.seed)
		if sharesDayZero(first, cold) {
			t.Fatalf("%s: the emptied memo served the day 0 it had forgotten", tc.field)
		}
		day0, hash := dayZeroAndFive(t, m)
		coldDay0, coldHash := dayZeroAndFive(t, cold)
		exportEqual(t, day0, coldDay0)
		if hash != coldHash {
			t.Fatalf("%s: downloads after 5 steps hash to %#x, %#x built cold", tc.field, hash, coldHash)
		}
	}
}

// TestSharedCatalogLifecycle: same-key markets read one day-0 market until
// one of them steps, which retires the memo entry and, beside a market
// still on day 0, moves the simulation off the day's rows, so the next New
// of the key builds again and gets what a cold build gets.
func TestSharedCatalogLifecycle(t *testing.T) {
	const seed = 42
	cfg := smallConfig()
	a := soloBuild(t, cfg, seed)
	b, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesCatalog(a, b) || !sharesDayZero(a, b) {
		t.Fatal("two same-key markets built back to back built a day 0 each")
	}
	if err := a.Step(); err != nil {
		t.Fatal(err)
	}
	ac, bc := a.Catalog(), b.Catalog()
	if sharesCatalog(a, b) || sharesDayZero(a, b) || &ac.Categories[0] == &bc.Categories[0] || &ac.Developers[0] == &bc.Developers[0] {
		t.Fatal("a market that has stepped still reads the day-0 rows, headers or downloads")
	}
	c, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if sharesCatalog(b, c) || sharesDayZero(b, c) {
		t.Fatal("a New after a roll was served the retired day 0")
	}
	cold := soloBuild(t, cfg, seed)
	if !reflect.DeepEqual(c.Catalog(), cold.Catalog()) || !reflect.DeepEqual(b.Catalog(), cold.Catalog()) {
		t.Fatal("catalogs built again after a roll, or still shared, differ from a cold build's")
	}
	day0, hash := dayZeroAndFive(t, c)
	coldDay0, coldHash := dayZeroAndFive(t, cold)
	exportEqual(t, day0, coldDay0)
	if hash != coldHash {
		t.Fatalf("downloads after 5 steps hash to %#x, %#x built cold", hash, coldHash)
	}
}

// TestSameKeyMarketsShareNothingMutable steps two markets of one day 0 on
// two goroutines, one of them also merging ingested downloads, beside a
// third that only exports and partitions. Run under -race -cpu 1,4
// -count=10: the detector checks that what they share is only read. The
// market left alone and the day-0 market they were all handed are, field
// for field, what a cold build gives, and the stepper beside the written
// one is what a solo run gives: neither the steppers' arrivals, version
// bumps, price drift and download draws nor the merged downloads reach
// anyone else.
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
	proto := dayZero()
	written, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	still, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesDayZero(untouched, written) || !sharesDayZero(untouched, still) || !sharesCatalog(untouched, still) {
		t.Fatal("same-key markets built back to back do not share a day 0")
	}
	g := genesisFor(seed, cfg.Profile)
	if a := simOf(still).appeal; cap(a) != len(a) || &a[0] != &g.appeal[0] {
		t.Fatalf("New handed out the genesis appeal with room for %d appends in place", cap(a)-len(a))
	}
	appeal0 := slices.Clone(g.appeal)

	var wg sync.WaitGroup
	for _, m := range []*Market{untouched, written} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(m, m == written)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := NewPartitioner(ownsMod(1, 3))
		for d := 0; d < days; d++ {
			still.Export()
			p.PartitionMarket(still)
		}
	}()
	wg.Wait()

	if got, want := hashDownloads(untouched), hashDownloads(solo); got != want {
		t.Fatalf("a market stepped beside a written same-key market hashes to %#x, alone to %#x", got, want)
	}
	if hashDownloads(written) == hashDownloads(solo) {
		t.Fatal("the ingested downloads left no mark: the comparison above proves nothing")
	}
	if len(simOf(untouched).appeal) <= len(appeal0) {
		t.Fatalf("no app arrived in %d days: the appeal check below would be vacuous", days)
	}
	if !slices.Equal(g.appeal, appeal0) {
		t.Fatal("arrivals wrote into the genesis appeal other keys read")
	}
	if !slices.Equal(simOf(untouched).appeal, simOf(solo).appeal) {
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
		t.Fatalf("in %d days no version shipped (%v) or no price moved (%v): the checks below would be vacuous", days, !bumped, !drifted)
	}
	cold := soloBuild(t, cfg, seed)
	if !reflect.DeepEqual(stateOf(proto), stateOf(dayZero())) {
		t.Fatal("markets stepping beside it wrote into the day-0 market they were handed")
	}
	if !reflect.DeepEqual(stateOf(still), stateOf(cold)) {
		t.Fatal("markets stepping beside it wrote into a market that stood still")
	}
}

// TestSteppedViewAliasesNothing: once a market has stepped or merged
// downloads, its observation arrays — counts, row versions, dirty days,
// series, partitioner and catalog header, found by reflection over every
// field — alias nothing a same-key market that has not rolled or the day-0
// market it was handed reaches, except what allowShared names; and once the
// simulation has stepped past a day another market is on and has taken the
// catalog of, it aliases nothing that day's view reaches, except what
// allowShared names: the step moved onto copies first. A field added to
// Market that Market.ownCounts does not copy, or to dayView that the step
// does not move off, fails here. Days without arrivals are the strict case:
// an arrival moves every per-app array by appending to it before anything
// writes in place.
func TestSteppedViewAliasesNothing(t *testing.T) {
	const seed = 42
	step := func(m *Market) error { return m.Step() }
	merge := func(m *Market) error {
		m.ApplyDownloadDelta([]int32{0, 1}, func(int32) int64 { return 5 })
		return nil
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		roll func(*Market) error
	}{
		// Enough free apps that the free table keeps a cumIndex.
		{"step without arrivals", func(c *Config) { c.Profile.NewAppsPerDay, c.Profile.Apps = 0, 2000 }, step},
		{"step with arrivals", func(c *Config) { c.Profile.NewAppsPerDay = 3 }, step},
		{"merge downloads", func(c *Config) {}, merge},
		// One user who has downloaded past ownedThreshold.
		{"owned sets", func(c *Config) {
			c.Profile.NewAppsPerDay, c.Profile.Users, c.Profile.DownloadsPerUser = 0, 1, 1000
		}, step},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Profile.PaidFraction = 0.5
			tc.set(&cfg)
			rolled := soloBuild(t, cfg, seed)
			proto := dayZero()
			other, err := New(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "owned sets" {
				s := simOf(proto)
				if s.freeUsers[0].owned == nil || len(s.usersPaid) == 0 {
					t.Fatal("the user has no owned set or no paid downloads: the check would not reach them")
				}
				// The paid stream's selective draws saturate well below
				// ownedThreshold: give its states the set they would have past
				// it, which answers as their histories do.
				for _, u := range s.usersPaid {
					u.owned = s.hist.set(u)
				}
			}
			theirObs := spansSorted(observations, proto, other)
			theirDay := spansSorted(dayOf, other)
			if n, _ := overlaps(observations(rolled), theirObs); n < 3 {
				t.Fatalf("before it rolls a market shares %d observation blocks with its day 0: the check below would be vacuous", n)
			}
			if n, _ := overlaps(simulation(rolled), theirDay); n < 3 {
				t.Fatalf("before it steps the simulation shares %d blocks with its day-0 view: the check below would be vacuous", n)
			}
			if err := tc.roll(rolled); err != nil {
				t.Fatal(err)
			}
			if n, first := overlaps(observations(rolled), theirObs); n > 0 {
				t.Fatalf("a market that has rolled shares %d observation blocks with the day 0 it was handed or a market that has not, first %s", n, first)
			}
			if rolled.Day() > 0 {
				if n, first := overlaps(simulation(rolled), theirDay); n > 0 {
					t.Fatalf("a simulation stepped past a day another market holds shares %d blocks with that day's view, first %s", n, first)
				}
			} else if rolled.v != other.v {
				t.Fatal("merging downloads moved a market off its day's view")
			}
			runtime.KeepAlive(other)
		})
	}
}

// observations, dayOf and simulation are what reach walks of a market: the
// blocks of its own struct's fields less its view, the catalog header's own
// struct but not the rows and lists it points at; the blocks of its day's
// view as it hands them out, header included (Catalog); and the blocks of
// its key's simulation.
func observations(m *Market) []span {
	v := *m
	v.proto, v.v, v.cat = nil, nil, nil
	var out []span
	reach(reflect.ValueOf(&v).Elem(), "", &out)
	h := reflect.ValueOf(m.cat).Pointer()
	return append(out, span{h, h + reflect.TypeOf(*m.cat).Size(), "cat"})
}

func dayOf(m *Market) []span {
	day := struct {
		cat                catalog.Catalog
		catNames, devNames []string
		log                dayLog
	}{*m.Catalog(), m.v.catNames, m.v.devNames, m.v.log}
	var out []span
	reach(reflect.ValueOf(&day).Elem(), "", &out)
	return out
}

func simulation(m *Market) []span {
	var out []span
	reach(reflect.ValueOf(simOf(m)).Elem(), "", &out)
	return out
}

// spanIndex is the blocks some markets reach, sorted by start, with
// reachHi[i] the highest end of spans[:i+1].
type spanIndex struct {
	spans   []span
	reachHi []uintptr
}

func spansSorted(layer func(*Market) []span, ms ...*Market) spanIndex {
	var x spanIndex
	for _, m := range ms {
		x.spans = append(x.spans, layer(m)...)
	}
	slices.SortFunc(x.spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	x.reachHi = make([]uintptr, len(x.spans))
	for i, s := range x.spans {
		x.reachHi[i] = s.hi
		if i > 0 {
			x.reachHi[i] = max(s.hi, x.reachHi[i-1])
		}
	}
	return x
}

// overlaps counts the blocks of mine that overlap one in x, and names the
// first pair. A block overlaps one in x iff reachHi is past its start at
// the last span of x that starts before its end.
func overlaps(mine []span, x spanIndex) (n int, first string) {
	for _, s := range mine {
		i, _ := slices.BinarySearchFunc(x.spans, s.hi, func(a span, hi uintptr) int { return cmp.Compare(a.lo, hi) })
		if i == 0 || x.reachHi[i-1] <= s.lo {
			continue
		}
		if n++; first == "" {
			for j := i - 1; j >= 0; j-- {
				if x.spans[j].hi > s.lo {
					first = s.path + " and " + x.spans[j].path
					break
				}
			}
		}
	}
	return n, first
}

// allowShared lists what a market that has rolled, or the simulation past a
// day, may still share with that day, each only read or appended to at cap
// == len, so that the first append moves it, or beyond the day's length.
var allowShared = map[string]bool{
	// The genesis (genesis.go), the category names, and the developer names,
	// whose entries below a day's length are never rewritten.
	"freeBudget": true, "schedule.words": true, "catNames": true, "devNames": true,
	// The catalog's member lists: an insert moves the list it extends.
	"cat.Categories[].Apps": true, "cat.Developers[].Apps": true,
	// The days a series has recorded, never written again, in a list
	// appended to at cap == len.
	"series.Days": true,
}

// span is a block of memory a market reaches: a slice's backing array, a
// map, or a pointed-at value.
type span struct {
	lo, hi uintptr
	path   string
}

// reach appends every block v reaches, through every field, element and
// map entry, to out. Strings are immutable and skipped.
func reach(v reflect.Value, path string, out *[]span) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || allowShared[path] {
			return
		}
		*out = append(*out, span{v.Pointer(), v.Pointer() + max(v.Type().Elem().Size(), 1), path})
		reach(v.Elem(), path, out)
	case reflect.Slice:
		if v.Cap() == 0 || allowShared[path] {
			return
		}
		*out = append(*out, span{v.Pointer(), v.Pointer() + uintptr(v.Cap())*max(v.Type().Elem().Size(), 1), path})
		if hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				reach(v.Index(i), path+"[]", out)
			}
		}
	case reflect.Map:
		if v.IsNil() || allowShared[path] {
			return
		}
		*out = append(*out, span{v.Pointer(), v.Pointer() + 1, path})
		for it := v.MapRange(); it.Next(); {
			reach(it.Value(), path+"[]", out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			reach(v.Field(i), name, out)
		}
	case reflect.Array:
		if hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				reach(v.Index(i), path+"[]", out)
			}
		}
	case reflect.Func:
		if !v.IsNil() { // a nil func (the whole catalog's ownership) reaches nothing
			panic(path + ": reach does not walk a func")
		}
	case reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		panic(path + ": reach does not walk a " + v.Kind().String())
	}
}

// hasPointers reports whether a value of type t can reach memory reach
// would record.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestDayZeroIsCollectedOnceEveryMarketRolls: the memo lets go of a key's
// day-0 market at the first roll, and the day-0 view links forward only, so
// a process whose markets have all stepped past day 0 keeps no day-0 rows
// beside theirs. Merging downloads is not a roll: it writes only the
// market's own counts.
func TestDayZeroIsCollectedOnceEveryMarketRolls(t *testing.T) {
	const seed = 42
	cfg := smallConfig()
	a := soloBuild(t, cfg, seed)
	b, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	runtime.SetFinalizer(dayZero().v, func(*dayView) { close(done) })
	wasCollected := func() bool { return collected(done) }
	if err := a.Step(); err != nil {
		t.Fatal(err)
	}
	if _, _ = b.ApplyDownloadDelta([]int32{0}, func(int32) int64 { return 1 }); wasCollected() {
		t.Fatal("the day-0 view was collected while a market that has not stepped reads it")
	}
	if err := b.Step(); err != nil {
		t.Fatal(err)
	}
	if !wasCollected() {
		t.Fatal("the day-0 view outlived the step of every market handed it")
	}
	if a.v != b.v {
		t.Fatal("two markets stepped from one day 0 to one day each hold a view of their own")
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

// dayZero returns the day-0 market the memo holds.
func dayZero() *Market {
	dayZeroMemo.mu.Lock()
	defer dayZeroMemo.mu.Unlock()
	return dayZeroMemo.ent.v
}

// marketState is a market without what tells two markets with one history
// apart: the memo entry it came from, the exports it took, and its view's
// links and marks.
type marketState struct {
	cat                catalog.Catalog
	catNames, devNames []string
	log                dayLog
	day                int
	downloads          []int64
	rowVer             []uint32
	dirtyDay           []int32
	series             snapshot.Series
}

func stateOf(m *Market) marketState {
	return marketState{*m.Catalog(), m.v.catNames, m.v.devNames, m.v.log, m.Day(), m.downloads, m.rowVer, m.dirtyDay, *m.series}
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
	if simOf(m).schedule.len() == 0 {
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
// second-of-a-seed is every later one built before any of them steps: a
// view of the first one's day 0, four small structs of its own.
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
			if !sharesGenesis(first, m) || !sharesDayZero(first, m) {
				b.Fatal("the second market of a seed drew its own genesis or built its own day 0")
			}
		}
	})
}
