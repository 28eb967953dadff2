package marketsim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/rng"
)

// matchesTwin fails unless m is its solo twin in all it can be read by
// without lending its day out: day, rows, name tables, counts, row versions
// and dirty days, and the series' newest day. And since a twin counts
// downloads by the same day logs, m's counts must add up to what it
// ingested plus the downloads its twin's users, on its twin's own
// simulation, have recorded.
func matchesTwin(t *testing.T, what string, m, twin *Market, ingested int64) {
	t.Helper()
	if m.Day() != twin.Day() {
		t.Fatalf("%s is at day %d, its twin at %d", what, m.Day(), twin.Day())
	}
	var sum, recorded int64
	for _, d := range m.Downloads() {
		sum += d
	}
	s := simOf(twin)
	for u := range s.freeUsers {
		recorded += int64(s.freeUsers[u].count())
	}
	for _, u := range s.usersPaid {
		recorded += int64(u.count())
	}
	if sum != recorded+ingested {
		t.Fatalf("%s counts %d downloads on day %d, its twin's users recorded %d and it ingested %d",
			what, sum, m.Day(), recorded, ingested)
	}
	if m.cat.Name != twin.cat.Name || !slices.Equal(m.cat.Apps, twin.cat.Apps) ||
		!slices.Equal(m.v.catNames, twin.v.catNames) || !slices.Equal(m.v.devNames, twin.v.devNames) {
		t.Fatalf("%s's rows or name tables differ from its twin's on day %d", what, m.Day())
	}
	if !slices.Equal(m.Downloads(), twin.Downloads()) || !slices.Equal(m.rowVer, twin.rowVer) || !slices.Equal(m.dirtyDay, twin.dirtyDay) {
		t.Fatalf("%s's counts or row versions differ from its twin's on day %d", what, m.Day())
	}
	ds, tw := m.Series().Days, twin.Series().Days
	if len(ds) != len(tw) || !reflect.DeepEqual(ds[len(ds)-1], tw[len(tw)-1]) {
		t.Fatalf("%s's series differs from its twin's on day %d", what, m.Day())
	}
}

// matchesTwinFully is matchesTwin and also compares the whole catalog and a
// full export, both of which lend m's day out.
func matchesTwinFully(t *testing.T, what string, m, twin *Market, ingested int64) {
	t.Helper()
	matchesTwin(t, what, m, twin, ingested)
	if !reflect.DeepEqual(m.Catalog(), twin.Catalog()) {
		t.Fatalf("%s's catalog differs from its twin's on day %d", what, m.Day())
	}
	exportEqual(t, fullExport(m), fullExport(twin))
}

// twinConfig is a small market with arrivals and price drift every day.
func twinConfig() Config {
	cfg := smallConfig()
	cfg.Days = 60
	cfg.Profile.NewAppsPerDay = 3  // outside the genesis key; arrivals every day
	cfg.Profile.PaidFraction = 0.3 // and price drift
	return cfg
}

// collected reports whether the finalizer that closes done runs within a
// few collections.
func collected(done chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// TestSameKeyMarketsMatchSoloTwins holds same-key markets, which share one
// simulation, to solo twins, each built cold from an emptied memo, fed the
// same operations and sharing nothing. Run under -race -cpu 1,4 -count=10
// (cpu14).
//
// interleaved drives four markets through a seeded interleaving of Step,
// ApplyDownloadDelta (a delta of each market's own), Export and
// PartitionMarket, with one market lagging two days and more behind and,
// beside half the steps, a sibling exporting on another goroutine. After
// every operation every market must be its twin in all it can be read by
// without lending its day out, so that days nobody exported are written in
// place and put back for the markets behind them, some beside a sibling's
// export; what each Export and PartitionMarket returned must be its twin's,
// chunk versions included; and at the end each market's catalog and full
// export must be its twin's.
//
// dropped drops a third market of the same day 0 unstepped and, once it is
// collected, steps the other two, one exporting and the other ingesting.
//
// laggard parks a market on day 0 while its sibling steps twelve days with
// no export and no catalog taken, so the simulation writes every one of
// those days' rows in place; the laggard then catches up through them.
func TestSameKeyMarketsMatchSoloTwins(t *testing.T) {
	const seed = 42
	t.Run("interleaved", func(t *testing.T) {
		const (
			markets = 4
			leader  = 0
			laggard = markets - 1
			ops     = 160
		)
		cfg := twinConfig()
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
		if ms[0].v != ms[markets-1].v {
			t.Fatal("same-key markets built back to back are not on one day view: the test would compare solo markets")
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
		var written, writtenBeside, putBack int
		for k := 0; k < ops; k++ {
			i := r.Intn(markets)
			o := op(r.Intn(int(numOps)))
			if i == leader && o >= export && r.Bool(0.75) {
				o = step // runs ahead, mostly on days nobody else took
			}
			if o == step && (ms[i].Day() == cfg.Days-1 || i == laggard && r.Bool(0.75)) {
				o = export
			}
			n := int32(ms[i].cat.NumApps())
			apps := []int32{int32(r.Intn(int(n))), int32(r.Intn(int(n))), n + 7} // the last is unknown: skipped
			slices.Sort(apps)
			// Beside half the steps, a sibling exports on another goroutine.
			sib := -1
			if o == step && r.Bool(0.5) {
				sib = (i + 1 + r.Intn(markets-1)) % markets
			}
			// What the step does to the day it leaves, read before a sibling
			// can put it back.
			was := ms[i].v
			adopts := o == step && was.next != nil && was.next.moved
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
			if o == step && was.moved && !adopts {
				written++
				if sib >= 0 {
					writtenBeside++
				}
			}
			if adopts {
				putBack++
			}
			for j := range ms {
				matchesTwin(t, fmt.Sprintf("op %d: market %d", k, j), ms[j], twins[j], ingested[j])
			}
			if ms[0].Day()-ms[laggard].Day() >= 2 {
				lagged = true
			}
		}
		for j := range ms {
			matchesTwinFully(t, fmt.Sprintf("at the end: market %d", j), ms[j], twins[j], ingested[j])
		}
		t.Logf("%d steps wrote their day in place, %d of them beside a sibling's export; %d put a day's rows back", written, writtenBeside, putBack)
		if !lagged || beside == 0 || ms[0].Day() < 5 || writtenBeside == 0 || putBack == 0 {
			t.Fatalf("the interleaving never had a laggard two days behind (%v), a sibling exporting beside a step (%d), five days (%d), a day written in place beside a sibling's export (%d) or a day's rows put back (%d): the checks were weak",
				lagged, beside, ms[0].Day(), writtenBeside, putBack)
		}
	})

	t.Run("dropped", func(t *testing.T) {
		cfg := twinConfig()
		twins := [2]*Market{soloBuild(t, cfg, seed), soloBuild(t, cfg, seed)}
		ms := [2]*Market{soloBuild(t, cfg, seed)}
		for _, i := range []int{1, 2} {
			m, err := New(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if i < len(ms) {
				ms[i] = m
				continue
			}
			done := make(chan struct{})
			runtime.SetFinalizer(m, func(*Market) { close(done) })
			if m = nil; !collected(done) {
				t.Fatal("the dropped market was never collected")
			}
		}
		var ingested int64
		for d := 0; d < 20; d++ {
			for i, m := range ms {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if err := twins[i].Step(); err != nil {
					t.Fatal(err)
				}
			}
			if d%2 == 0 {
				ms[0].Export()
				twins[0].Export()
			}
			for _, m := range []*Market{ms[1], twins[1]} {
				m.ApplyDownloadDelta([]int32{int32(d), 1}, func(int32) int64 { return 2 })
			}
			ingested += 4
			matchesTwinFully(t, fmt.Sprintf("day %d: the exporting market", d), ms[0], twins[0], 0)
			matchesTwinFully(t, fmt.Sprintf("day %d: the ingesting market", d), ms[1], twins[1], ingested)
		}
	})

	t.Run("laggard", func(t *testing.T) {
		const days = 12
		cfg := twinConfig()
		aheadTwin, lagTwin := soloBuild(t, cfg, seed), soloBuild(t, cfg, seed)
		ahead := soloBuild(t, cfg, seed)
		lag, err := New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < days; d++ {
			if err := ahead.Step(); err != nil {
				t.Fatal(err)
			}
			if err := aheadTwin.Step(); err != nil {
				t.Fatal(err)
			}
			// No export and no catalog, which would keep the day's rows.
			if !slices.Equal(ahead.Downloads(), aheadTwin.Downloads()) || !slices.Equal(ahead.rowVer, aheadTwin.rowVer) {
				t.Fatalf("day %d: the market ahead counts other downloads or row versions than its twin", ahead.Day())
			}
		}
		moved := 0
		for v := lag.v.next; v != nil; v = v.next {
			if v.moved {
				moved++
			}
		}
		if moved < days-1 {
			t.Fatalf("the simulation wrote %d of the %d days ahead of the laggard in place: the catch-up would not put rows back", moved, days)
		}
		var ingested int64
		for d := 0; d < days; d++ {
			if err := lag.Step(); err != nil {
				t.Fatal(err)
			}
			if err := lagTwin.Step(); err != nil {
				t.Fatal(err)
			}
			if d%3 == 0 {
				for _, m := range []*Market{lag, lagTwin} {
					m.ApplyDownloadDelta([]int32{int32(d), 5}, func(int32) int64 { return 3 })
				}
				ingested += 6
			}
			matchesTwinFully(t, fmt.Sprintf("day %d: the laggard", lag.Day()), lag, lagTwin, ingested)
		}
		matchesTwinFully(t, "the market ahead", ahead, aheadTwin, 0)
	})
}

// TestExportOutlivesAnInPlaceStep: an export reads its day's row array, not a
// copy, so a lone market — the only reader of its day, which it steps in
// place — must move the next day onto a copy of the rows before writing
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
	ch := m.v.ch
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

	if m.v.ch != ch {
		t.Fatal("the lone market did not step its key's one simulation in place")
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
	v := m.v
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !v.moved {
		t.Fatal("the lone market did not step its day in place")
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

// TestDroppedMarketCostsOneRowCopy: a market dropped without stepping is
// no reader its siblings keep paying for. Two same-key markets step three
// days together, one is dropped and collected, and the other's next Step
// moves the simulation off the rows the dropped market was on — one copy
// of the rows and the day's log — and the Step after that, with nobody
// else on the day, writes in place, keeping only the day's log whole for a
// market that might be behind. When a dropped market still counted
// as a reader, every later Step copied the whole simulation (3.3 MB at
// this size). Arrivals are switched off, since they grow the rows by
// append.
func TestDroppedMarketCostsOneRowCopy(t *testing.T) {
	const apps = 20_000
	cfg := retentionConfig(apps)
	cfg.Profile.NewAppsPerDay = 0
	kept := soloBuild(t, cfg, 3)
	dropped, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ { // past the first Step, which copies the day-0 counts
		if err := kept.Step(); err != nil {
			t.Fatal(err)
		}
		if err := dropped.Step(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	runtime.SetFinalizer(dropped, func(*Market) { close(done) })
	if dropped = nil; !collected(done) {
		t.Fatal("the dropped market was never collected")
	}
	stepAlloc := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := kept.Step(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	next, then := stepAlloc(), stepAlloc()
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	rows, log := uint64(64*apps), uint64(64<<10)
	t.Logf("after a same-key market was dropped, the next Step of a %d-app market allocated %d bytes and the one after %d; a copy of its rows is %d",
		apps, next, then, rows)
	if next > rows+log {
		t.Fatalf("the Step after a same-key market was dropped allocated %d bytes, want <= %d (one copy of the rows and the day's log)", next, rows+log)
	}
	if then > log {
		t.Fatalf("the second Step after a same-key market was dropped allocated %d bytes, want <= %d (the day's log): it copies at every step", then, log)
	}
}

// TestLaggardHoldsItsDayAndLogs: a market parked on day 0 while a sibling
// steps thirty days without exporting holds its own day — the rows the
// simulation moved off and its counts, 80 B an app — and each later day's
// view and log, with which it will catch up; not a day's simulation. The
// heap dropping it frees is held to that. When a laggard kept every later
// day alive as a simulation of its own, it held thirty of them.
func TestLaggardHoldsItsDayAndLogs(t *testing.T) {
	const apps, days = 20_000, 30
	cfg := retentionConfig(apps)
	ahead := soloBuild(t, cfg, 1)
	lag, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < days; d++ {
		if err := ahead.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// A view's struct and log, and 1 KiB for the size classes they round to.
	var logs int64
	for v := lag.v.next; v != nil; v = v.next {
		logs += int64(reflect.TypeOf(v).Elem().Size()) + int64(4*cap(v.log.rows)+4*cap(v.log.draws)+64*cap(v.log.vals)) + 1<<10
	}
	own := int64(80*lag.cat.NumApps()) + 4<<10
	withLag := heapAfterGC()
	runtime.KeepAlive(lag)
	held := int64(withLag) - int64(heapAfterGC())
	runtime.KeepAlive(ahead)
	if raceEnabled {
		return
	}
	t.Logf("a laggard %d days behind holds %d bytes: its day %d, the later days' views and logs %d", days, held, own, logs)
	if held > own+logs {
		t.Fatalf("a laggard %d days behind holds %d bytes, want <= %d (its day and the later days' logs)", days, held, own+logs)
	}
}
