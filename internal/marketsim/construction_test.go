package marketsim

import "testing"

// tablesAreExact reports the first sampling table of m holding fewer entries
// than it has room for.
func tablesAreExact(t *testing.T, m *Market) {
	t.Helper()
	check := func(name string, length, room int) {
		t.Helper()
		if length != room {
			t.Fatalf("%s: %d entries in room for %d", name, length, room)
		}
	}
	check("freeCum", len(m.freeCum), cap(m.freeCum))
	check("freeApps", len(m.freeApps), cap(m.freeApps))
	check("paidApps", len(m.paidApps), cap(m.paidApps))
	check("paidW", len(m.paidW), cap(m.paidW))
	check("paidCum", len(m.paidCum), cap(m.paidCum))
	for c := range m.catCum {
		check("catCum", len(m.catCum[c]), cap(m.catCum[c]))
		check("catApps", len(m.catApps[c]), cap(m.catApps[c]))
	}
}

// tablesAreAFold holds the sampling tables to what a from-scratch rebuild
// over the current catalog would hold: every cumulative table the
// left-to-right sum of its weights in ID order, every paid weight what
// paidWeight computes now.
func tablesAreAFold(t *testing.T, m *Market) {
	t.Helper()
	var free float64
	cat := make([]float64, len(m.catCum))
	nFree, nCat := 0, make([]int, len(m.catCum))
	for i := range m.cat.Apps {
		a := &m.cat.Apps[i]
		if m.isPaid[i] {
			continue
		}
		free += m.appeal[i]
		if m.freeApps[nFree] != a.ID || m.freeCum[nFree] != free {
			t.Fatalf("day %d: free table entry %d is app %d at %v, want app %d at %v", m.day, nFree, m.freeApps[nFree], m.freeCum[nFree], a.ID, free)
		}
		nFree++
		c := a.Category
		cat[c] += m.appeal[i] // catBias is 1 on the profile under test
		if k := nCat[c]; m.catApps[c][k] != a.ID || m.catCum[c][k] != cat[c] {
			t.Fatalf("day %d: category %d entry %d is app %d at %v, want app %d at %v", m.day, c, k, m.catApps[c][k], m.catCum[c][k], a.ID, cat[c])
		}
		nCat[c]++
	}
	if nFree != len(m.freeCum) {
		t.Fatalf("day %d: free table holds %d entries for %d free apps", m.day, len(m.freeCum), nFree)
	}
	var paid float64
	for j := range m.paidApps {
		w := m.paidWeight(int32(j))
		paid += w
		if m.paidW[j] != w || m.paidCum[j] != paid {
			t.Fatalf("day %d: paid entry %d weighs %v cumulating to %v, want %v and %v", m.day, j, m.paidW[j], m.paidCum[j], w, paid)
		}
	}
}

// TestBuiltAtFinalSize: the first syncTables counts before it fills, so the
// day-0 market New builds has sampling tables with no growth slack (a table grown by append held
// up to twice its entries: 22 MB of a five-store rig's heap for 13 MB of
// table), each paid weight computed once and not once per later paid app of
// its developer, and the build costs allocations by the thousand — it was
// 114,077, 64k of them catalog.Generate's one name and one list a
// developer. What the tables hold is what a full rebuild would, at day 0 and
// after arrivals have moved them onto arrays of their own.
func TestBuiltAtFinalSize(t *testing.T) {
	cfg := retentionConfig(20_000)
	cfg.Profile.NewAppsPerDay = 40 // several arrivals a day, some paid, some by developers already there
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.catBias != 1 || len(m.paidApps) < 1000 {
		t.Fatalf("profile under test: catBias %v, %d paid apps", m.catBias, len(m.paidApps))
	}
	// The market New built, not the view of it New handed out: a view has
	// every table clipped.
	d := dayZero()
	tablesAreExact(t, d)
	if cap(d.paidDirty) != len(d.paidApps) {
		t.Fatalf("%d paid apps were enqueued for their weight in room for %d", len(d.paidApps), cap(d.paidDirty))
	}
	tablesAreAFold(t, m)
	before := m.cat.NumApps()
	for day := 0; day < 10; day++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		tablesAreAFold(t, m)
	}
	if grown := m.cat.NumApps() - before; grown < 100 {
		t.Fatalf("only %d arrivals in ten days: the tables were not extended", grown)
	}

	if raceEnabled {
		return // the race allocator counts its own
	}
	allocs := testing.AllocsPerRun(3, func() {
		dayZeroMemo.forget() // a build, not a view of the last one
		if _, err := New(cfg, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New: %.0f allocations for %d apps", allocs, cfg.Profile.Apps)
	if allocs > 3000 {
		t.Fatalf("New: %.0f allocations for %d apps", allocs, cfg.Profile.Apps)
	}
}
