package marketsim

import (
	"runtime"
	"testing"

	"planetapps/internal/catalog"
)

// retentionConfig is cmd/bench's market at a fifth of its size: a pinned
// population on a 4096-day period, so a day changes about 2 % of download
// counts and 0.3 % of rows and adds 0.05 % new apps.
func retentionConfig(apps int) Config {
	cfg := DefaultConfig(catalog.Profile{
		Name: "retention", Apps: apps, Categories: 30, PaidFraction: 0.1,
		AdFraction: 0.67, NewAppsPerDay: float64(apps) / 2000,
		Users: apps, DownloadsPerUser: 82,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	})
	cfg.Days = 4096
	cfg.WarmupDays = 0
	cfg.DisableSeries = true
	return cfg
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExportRetentionPerRound bounds what a long-running store keeps per
// day-roll on account of its exports. Only the latest export and the latest
// partition are held, as a server holds them; everything older is garbage
// except the chunks still shared forward. The market's own growth (its
// users' download histories) is measured on a twin that steps without
// exporting, and subtracted. When the fresh chunks of a round were carved
// from one backing array per family, one surviving 1 KiB row chunk kept
// that round's whole array alive, and the exports added about 170 KiB a
// round at this size for as long as the store ran.
func TestExportRetentionPerRound(t *testing.T) {
	const (
		apps   = 20_000
		warmup = 5 // rounds that replace whatever New's own export shares
		rounds = 40
	)
	// growth runs warmup+rounds rounds and returns the heap growth over the
	// last `rounds` of them.
	growth := func(round func()) int64 {
		for i := 0; i < warmup; i++ {
			round()
		}
		before := heapAfterGC()
		for i := 0; i < rounds; i++ {
			round()
		}
		return int64(heapAfterGC()) - int64(before)
	}

	m, err := New(retentionConfig(apps), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioner(ownsMod(1, 4))
	var full, part *Export
	withExports := growth(func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		full = m.Export()
		part = p.PartitionMarket(m)
	})
	// A server holds its market and partitioner for as long as it runs.
	runtime.KeepAlive(m)
	runtime.KeepAlive(p)

	ref, err := New(retentionConfig(apps), 1) // steps only, so holds no export
	if err != nil {
		t.Fatal(err)
	}
	stepOnly := growth(func() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	})

	// The exports the rounds left behind are still right.
	exportEqual(t, full, ref.Export())
	for i := 0; i < part.NumApps(); i++ {
		g := int(part.ID(i))
		if part.App(i) != full.App(g) || part.Downloads(i) != full.Downloads(g) || part.RowVer(i) != full.RowVer(g) {
			t.Fatalf("partition row %d (app %d) differs from the dense export", i, g)
		}
	}

	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	// Ten arrivals a day cost the two exports well under 2 KiB; 8 KiB leaves
	// room for that and for size-class rounding.
	perRound := (withExports - stepOnly) / rounds
	t.Logf("heap growth over %d rounds: %d bytes with exports, %d stepping only: %d bytes/round for the exports",
		rounds, withExports, stepOnly, perRound)
	if perRound > 8<<10 {
		t.Fatalf("exports retain %d more bytes per Step+Export+Partition round, want <= %d", perRound, 8<<10)
	}
}

// TestMarketFootprint bounds what a serving store's market holds per
// scheduled download. On a long period almost all of the schedule waits
// unconsumed, so it must cost its information content, ⌈log2 users⌉ bits an
// event, plus a quarter byte for everything else that scales with events
// (here nothing: what a day-0 user has downloaded fits their own state,
// where budgets carved whole took a 256 KiB block). Measured as the
// heap a market holds over its twin whose users download nothing — the same
// catalog, tables and per-user state — so an event-sized structure under
// any name is in the figure: an int32 per event reads 4.2 bytes against
// this market's bound of 2.125. The genesis memo is emptied before each
// reading: the figure is the first market of a seed, genesis included, and
// an entry left by an earlier build would be freed inside the measured
// interval and subtracted from it.
func TestMarketFootprint(t *testing.T) {
	const users = 20_000
	full, events := heldByNew(t, users, 82, true)
	idle, _ := heldByNew(t, users, 0, true)
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	perEvent := float64(full-idle) / float64(events)
	bound := float64(packedWidth(users))/8 + 0.25
	t.Logf("%d users: %d bytes held with %d scheduled events, %d with none: %.3f bytes per event (bound %.3f)",
		users, full, events, idle, perEvent, bound)
	if perEvent > bound {
		t.Fatalf("a market retains %.3f bytes per scheduled event, want <= %.3f", perEvent, bound)
	}
}

// TestSecondMarketFootprint bounds what the second market of a key holds,
// built before any market of the key rolls and then stepped day by day
// beside the first. Built, it reads the first one's day 0 in place —
// genesis, catalog, sampling tables, user states, tracking arrays and
// downloads — so it holds its own struct and the catalog and series
// headers callers may point at, and nothing that grows with apps, users or
// events: 4 KiB is a few times that. A second market that built its own day
// 0 held 2.0 MB here. Stepped, the two share each day's simulation, so the
// second holds its own counts and row versions (16 B an app, with the room
// Market.observe leaves for arrivals), the same 4 KiB and at most the day
// log; when each market stepped a copy of its own it held 4.5 MB.
func TestSecondMarketFootprint(t *testing.T) {
	const users, days = 20_000, 16
	first, firstHeld := held(t, retentionConfig(users), true)
	second, secondHeld := held(t, retentionConfig(users), false)
	if !sharesDayZero(first, second) {
		t.Fatal("the second market of a key built a day 0 of its own")
	}
	for d := 0; d < days; d++ {
		if err := first.Step(); err != nil {
			t.Fatal(err)
		}
		if err := second.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if first.v != second.v {
		t.Fatal("two same-key markets stepped alike do not share their day")
	}
	n := second.cat.NumApps()
	log := &second.v.log
	dayLog := int64(4*cap(log.rows) + 4*cap(log.draws) + 64*cap(log.vals))
	withSecond := heapAfterGC()
	runtime.KeepAlive(second)
	rolledHeld := int64(withSecond) - int64(heapAfterGC())
	runtime.KeepAlive(first)
	if raceEnabled {
		return
	}
	t.Logf("%d users: the first market of a key holds %d bytes, the second %d built and %d after %d days (%d apps)",
		users, firstHeld, secondHeld, rolledHeld, days, n)
	if secondHeld > 4<<10 {
		t.Fatalf("a second same-key market holds %d bytes, want <= %d", secondHeld, 4<<10)
	}
	if bound := int64(16*(n+n/64)) + 4<<10 + dayLog; rolledHeld > bound {
		t.Fatalf("a second same-key market holds %d bytes after %d days, want <= %d", rolledHeld, days, bound)
	}
}

// TestHistoryFootprintFollowsDownloads bounds what a running market holds
// for its users' histories by what they have downloaded so far. Forty days
// into cmd/bench's period half the users have downloaded something and
// nobody more than a handful of apps: the store's own slot count must be
// within the histories invariant (nothing up to what the user's state
// holds, pieceGrowth times the downloads from there), and the heap the
// histories gained from day 1 to day 40 within that many slots plus one
// block and the paid stream's user records. The heap is the histories'
// own, what a collection frees once they are dropped: a market's whole
// heap also holds the counts its first Step copies and the arrays that
// arrivals regrow, and the difference from a twin whose users download
// nothing read negative. A budget carved whole at a user's first download
// (328 B here) adds 3.5 MB, twelve times the bound. Run on to the end of
// the period, nobody holds more than their budget and their pieces'
// headers (slotBound).
func TestHistoryFootprintFollowsDownloads(t *testing.T) {
	const users, days = 20_000, 40
	build := func(day int) *Market {
		m, err := New(retentionConfig(users), 1)
		if err != nil {
			t.Fatal(err)
		}
		for m.Day() < day {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// ledger sums what m's users have downloaded and what the invariant
	// lets them hold for it.
	ledger := func(m *Market) (downloads, allowed int) {
		for uid := range simOf(m).freeUsers {
			n := simOf(m).freeUsers[uid].count()
			downloads += n
			allowed += slotBound(n, int(simOf(m).freeBudget[uid]))
		}
		for _, u := range simOf(m).usersPaid {
			downloads += u.count()
			allowed += slotBound(u.count(), 0)
		}
		return downloads, allowed
	}
	// historyHeap is the heap m's histories alone hold, free stream and
	// paid: what a collection frees once they are dropped. m is unusable
	// afterwards.
	historyHeap := func(m *Market) int64 {
		before := heapAfterGC()
		simOf(m).freeUsers, simOf(m).hist, simOf(m).usersPaid, simOf(m).paidSlab = nil, histories{}, nil, nil
		after := heapAfterGC()
		runtime.KeepAlive(m)
		return int64(before) - int64(after)
	}

	start := build(1)
	downloads0, _ := ledger(start)
	slots0 := simOf(start).hist.slots
	held0 := historyHeap(start)
	m := build(days)
	downloads, allowed := ledger(m)
	slots, paid := simOf(m).hist.slots, len(simOf(m).usersPaid)
	held := historyHeap(m)
	grown := held - held0
	budget := int64(4*(allowed-slots0) + 4*maxBlock + 64*paid)
	t.Logf("day %d: %d downloads in %d slots (allowed %d); days 2-%d recorded %d and added %d bytes of history (%d held at day 1), %.1f a download (bound %d bytes)",
		days, downloads, slots, allowed, days, downloads-downloads0, grown, held0, float64(grown)/float64(downloads-downloads0), budget)
	if slots > allowed {
		t.Fatalf("day %d: %d slots carved for %d downloads, the invariant allows %d", days, slots, downloads, allowed)
	}
	if grown <= 0 {
		t.Fatalf("days 2-%d recorded %d downloads and the histories gained %d bytes: the measurement does not see them", days, downloads-downloads0, grown)
	}
	if raceEnabled {
		return // shadow memory swamps a byte bound, and the whole period takes a minute
	}
	if grown > budget {
		t.Fatalf("%d days of downloads added %d bytes of history, want <= %d", days, grown, budget)
	}

	// At drain a user's allowance is their budget and their pieces' headers.
	m = build(retentionConfig(users).Days - 1)
	downloads, allowed = ledger(m)
	t.Logf("drain: %d downloads in %d slots (allowed %d)", downloads, simOf(m).hist.slots, allowed)
	if simOf(m).hist.slots > allowed {
		t.Fatalf("drain: %d slots carved for %d downloads, the invariant allows %d", simOf(m).hist.slots, downloads, allowed)
	}
}

// heldByNew returns the heap one New(retentionConfig(users), 1) at the given
// DownloadsPerUser adds and keeps, and the events it scheduled.
func heldByNew(t *testing.T, users int, downloadsPerUser float64, emptyMemo bool) (heap int64, events int) {
	t.Helper()
	cfg := retentionConfig(users)
	cfg.Profile.DownloadsPerUser = downloadsPerUser
	m, heap := held(t, cfg, emptyMemo)
	return heap, simOf(m).schedule.len()
}

// held returns a New(cfg, 1) and the heap it adds and keeps.
func held(t *testing.T, cfg Config, emptyMemo bool) (*Market, int64) {
	t.Helper()
	if emptyMemo {
		forgetGenesis()
	}
	before := heapAfterGC()
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	heap := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(m)
	return m, heap
}

// forgetGenesis empties both memos, so the next New of any key draws its
// genesis and builds its day 0.
func forgetGenesis() {
	genesisMemo.forget()
	dayZeroMemo.forget()
}

func (m *memo[K, V]) forget() {
	m.mu.Lock()
	m.ent = nil
	m.mu.Unlock()
}
