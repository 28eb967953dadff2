package marketsim

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"planetapps/internal/catalog"
	"planetapps/internal/rng"
)

// TestSameKeyMarketsMatchSoloTwins drives four same-key markets, which share
// one simulation per day, through a seeded interleaving of Step,
// ApplyDownloadDelta (a delta of each market's own), Export and
// PartitionMarket, with one market lagging two days and more behind and,
// beside half the steps, a sibling exporting on another goroutine. Each
// market has a solo twin, built cold from an emptied memo, that is fed the
// same operations and shares nothing. After every operation every market
// must be its twin: day, catalog, counts, row versions and dirty days, the
// series' newest day, a full export, and what each Export and
// PartitionMarket returned, chunk versions included. And since a twin
// counts downloads by the same day logs, every market's counts must also add
// up to what it ingested plus the downloads its day's users have recorded.
// Run under -race -cpu 1,4 -count=10 (cpu14).
func TestSameKeyMarketsMatchSoloTwins(t *testing.T) {
	const (
		seed    = 42
		markets = 4
		laggard = markets - 1
		ops     = 160
	)
	cfg := smallConfig()
	cfg.Days = 60
	cfg.Profile.NewAppsPerDay = 3  // outside the genesis key; arrivals every day
	cfg.Profile.PaidFraction = 0.3 // and price drift

	var twins, ms [markets]*Market
	var parts, twinParts [markets]*Partitioner
	for i := range twins {
		twins[i] = soloBuild(t, cfg, seed)
		twinParts[i] = NewPartitioner(ownsMod(int32(i), markets))
		parts[i] = NewPartitioner(ownsMod(int32(i), markets))
	}
	ms[0] = soloBuild(t, cfg, seed)
	for i := 1; i < markets; i++ {
		m, err := New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	if ms[0].dayEntry != ms[markets-1].dayEntry {
		t.Fatal("same-key markets built back to back are not on one day entry: the test would compare solo markets")
	}

	type op int
	const (
		step op = iota
		delta
		export
		partition
		numOps
	)
	var ingested [markets]int64
	// do runs o on market i of set and returns what it exported, if it did.
	do := func(set *[markets]*Market, ps *[markets]*Partitioner, i int, o op, apps []int32) *Export {
		m := set[i]
		switch o {
		case step:
			if err := m.Step(); err != nil {
				t.Error(err)
			}
		case delta:
			m.ApplyDownloadDelta(apps, func(id int32) int64 {
				n := int64(i+1) + int64(id%3)
				if set == &ms {
					ingested[i] += n
				}
				return n
			})
		case export:
			return m.Export()
		case partition:
			return ps[i].PartitionMarket(m)
		}
		return nil
	}
	same := func(k int) {
		t.Helper()
		for i := range ms {
			m, twin := ms[i], twins[i]
			var sum, recorded int64
			for _, d := range m.Downloads() {
				sum += d
			}
			for u := range m.freeUsers {
				recorded += int64(m.freeUsers[u].count())
			}
			for _, u := range m.usersPaid {
				recorded += int64(u.count())
			}
			if sum != recorded+ingested[i] {
				t.Fatalf("op %d: market %d counts %d downloads on day %d, its users recorded %d and it ingested %d",
					k, i, sum, m.Day(), recorded, ingested[i])
			}
			if m.Day() != twin.Day() {
				t.Fatalf("op %d: market %d is at day %d, its twin at %d", k, i, m.Day(), twin.Day())
			}
			if !reflect.DeepEqual(m.Catalog(), twin.Catalog()) {
				t.Fatalf("op %d: market %d's catalog differs from its twin's on day %d", k, i, m.Day())
			}
			if !slices.Equal(m.Downloads(), twin.Downloads()) || !slices.Equal(m.rowVer, twin.rowVer) || !slices.Equal(m.dirtyDay, twin.dirtyDay) {
				t.Fatalf("op %d: market %d's counts or row versions differ from its twin's on day %d", k, i, m.Day())
			}
			ds, tw := m.Series().Days, twin.Series().Days
			if len(ds) != len(tw) || !reflect.DeepEqual(ds[len(ds)-1], tw[len(tw)-1]) {
				t.Fatalf("op %d: market %d's series differs from its twin's on day %d", k, i, m.Day())
			}
			exportEqual(t, fullExport(m), fullExport(twin))
		}
	}
	sameExport := func(k, i int, a, b *Export) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("op %d: market %d exported %v, its twin %v", k, i, a != nil, b != nil)
		}
		if a == nil {
			return
		}
		exportEqual(t, a, b)
		if !slices.Equal(a.chunkVer, b.chunkVer) {
			t.Fatalf("op %d: market %d's export has other chunk versions than its twin's", k, i)
		}
	}

	r := rng.New(seed)
	lagged, beside := false, 0
	for k := 0; k < ops; k++ {
		i := r.Intn(markets)
		o := op(r.Intn(int(numOps)))
		if o == step && (ms[i].Day() == cfg.Days-1 || i == laggard && r.Bool(0.75)) {
			o = export
		}
		n := int32(ms[i].Catalog().NumApps())
		apps := []int32{int32(r.Intn(int(n))), int32(r.Intn(int(n))), n + 7} // the last is unknown: skipped
		slices.Sort(apps)
		// Beside half the steps, a sibling exports on another goroutine.
		sib := -1
		if o == step && r.Bool(0.5) {
			sib = (i + 1 + r.Intn(markets-1)) % markets
		}
		var got, sibGot *Export
		if sib >= 0 {
			beside++
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				sibGot = do(&ms, &parts, sib, export, nil)
			}()
			got = do(&ms, &parts, i, o, apps)
			wg.Wait()
			sameExport(k, sib, sibGot, do(&twins, &twinParts, sib, export, nil))
		} else {
			got = do(&ms, &parts, i, o, apps)
		}
		sameExport(k, i, got, do(&twins, &twinParts, i, o, apps))
		same(k)
		if ms[0].Day()-ms[laggard].Day() >= 2 {
			lagged = true
		}
	}
	if !lagged || beside == 0 || ms[0].Day() < 5 {
		t.Fatalf("the interleaving never had a laggard two days behind (%v), a sibling exporting beside a step (%d) or five days (%d): the checks were weak",
			lagged, beside, ms[0].Day())
	}
}

// TestExportOutlivesAnInPlaceStep: an export reads its day's row array, not a
// copy, so a lone market — the only reader of its day entry, which it steps
// in place — must move the next day onto a copy of the rows before writing
// one. A whole-catalog export and a partition taken on one day are read on a
// second goroutine while the market steps eight days in place, and every
// row must read as it did when exported. Run under -race -cpu 1,4 -count=10
// (cpu14), where a write to an exported row is also a reported race.
func TestExportOutlivesAnInPlaceStep(t *testing.T) {
	const days = 8
	cfg := retentionConfig(4000)
	cfg.Profile.PaidFraction = 0.3 // enough paid apps for price moves
	m := soloBuild(t, cfg, 5)
	for d := 0; d < 3; d++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	entry := m.dayEntry
	whole := m.Export()
	part := NewPartitioner(ownsMod(1, 3)).PartitionMarket(m)
	want := make([]catalog.App, whole.NumApps())
	for i := range want {
		want[i] = whole.App(i)
	}
	// changed reports the first row of either export that no longer reads
	// as exported, or -1.
	changed := func() int {
		for i := range want {
			if whole.App(i) != want[i] {
				return i
			}
		}
		for i := 0; i < part.NumApps(); i++ {
			if part.App(i) != want[part.ID(i)] {
				return int(part.ID(i))
			}
		}
		return -1
	}

	stop := make(chan struct{})
	moved := make(chan int, 1)
	go func() {
		for {
			select {
			case <-stop:
				moved <- changed()
				return
			default:
				if i := changed(); i >= 0 {
					moved <- i
					return
				}
			}
		}
	}()
	stepped := func() error {
		for d := 0; d < days; d++ {
			if err := m.Step(); err != nil {
				return err
			}
		}
		return nil
	}()
	close(stop)
	if i := <-moved; i >= 0 {
		t.Fatalf("app %d: an exported row changed while the market stepped in place", i)
	}
	if stepped != nil {
		t.Fatal(stepped)
	}

	if m.dayEntry != entry || !entry.inPlace {
		t.Fatal("the lone market did not step its day entry in place")
	}
	var bumps, moves int
	for i, a := range m.Catalog().Apps[:len(want)] {
		if a.Versions != want[i].Versions {
			bumps++
		}
		if a.Price != want[i].Price {
			moves++
		}
	}
	if bumps == 0 || moves == 0 {
		t.Fatalf("%d days brought %d version bumps and %d price moves: the exported rows were never at risk", days, bumps, moves)
	}
}

// TestUnexportedMarketStepsWithoutCopyingRows: the copy that keeps exported
// rows unwritten is paid only by a market that exports. A lone market that
// never does — the experiments' and simulate's markets — steps its rows in
// place, so one Step allocates less than one copy of them. Arrivals are
// switched off, since they grow the rows by append.
func TestUnexportedMarketStepsWithoutCopyingRows(t *testing.T) {
	const apps = 20_000
	cfg := retentionConfig(apps)
	cfg.Profile.NewAppsPerDay = 0
	m := soloBuild(t, cfg, 3)
	for d := 0; d < 3; d++ { // past the first Step, which copies the day-0 counts
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	entry := m.dayEntry
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if m.dayEntry != entry || !entry.inPlace {
		t.Fatal("the lone market did not step its day entry in place")
	}
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	step, rows := after.TotalAlloc-before.TotalAlloc, uint64(64*apps)
	t.Logf("one in-place Step of a %d-app market allocated %d bytes; a copy of its rows is %d", apps, step, rows)
	if step >= rows {
		t.Fatalf("one in-place Step allocated %d bytes, want < %d (one copy of the rows)", step, rows)
	}
}
