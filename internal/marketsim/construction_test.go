package marketsim

import "testing"

// tablesAreExact reports the first sampling table of m holding fewer entries
// than it has room for.
func tablesAreExact(t *testing.T, s *sim) {
	t.Helper()
	check := func(name string, length, room int) {
		t.Helper()
		if length != room {
			t.Fatalf("%s: %d entries in room for %d", name, length, room)
		}
	}
	check("freeCum", len(s.freeCum), cap(s.freeCum))
	check("freeApps", len(s.freeApps), cap(s.freeApps))
	check("paidApps", len(s.paidApps), cap(s.paidApps))
	check("paidW", len(s.paidW), cap(s.paidW))
	check("paidCum", len(s.paidCum), cap(s.paidCum))
	for c := range s.catCum {
		check("catCum", len(s.catCum[c]), cap(s.catCum[c]))
		check("catApps", len(s.catApps[c]), cap(s.catApps[c]))
	}
}

// tablesAreAFold holds the sampling tables to what a from-scratch rebuild
// over the current catalog would hold: every cumulative table the
// left-to-right sum of its weights in ID order, every paid weight what
// paidWeight computes now.
func tablesAreAFold(t *testing.T, s *sim) {
	t.Helper()
	var free float64
	cat := make([]float64, len(s.catCum))
	nFree, nCat := 0, make([]int, len(s.catCum))
	for i := range s.cat.Apps {
		a := &s.cat.Apps[i]
		if s.isPaid[i] {
			continue
		}
		free += s.appeal[i]
		if s.freeApps[nFree] != a.ID || s.freeCum[nFree] != free {
			t.Fatalf("day %d: free table entry %d is app %d at %v, want app %d at %v", s.day, nFree, s.freeApps[nFree], s.freeCum[nFree], a.ID, free)
		}
		nFree++
		c := a.Category
		cat[c] += s.appeal[i] // catBias is 1 on the profile under test
		if k := nCat[c]; s.catApps[c][k] != a.ID || s.catCum[c][k] != cat[c] {
			t.Fatalf("day %d: category %d entry %d is app %d at %v, want app %d at %v", s.day, c, k, s.catApps[c][k], s.catCum[c][k], a.ID, cat[c])
		}
		nCat[c]++
	}
	if nFree != len(s.freeCum) {
		t.Fatalf("day %d: free table holds %d entries for %d free apps", s.day, len(s.freeCum), nFree)
	}
	var paid float64
	for j := range s.paidApps {
		w := s.paidWeight(int32(j))
		paid += w
		if s.paidW[j] != w || s.paidCum[j] != paid {
			t.Fatalf("day %d: paid entry %d weighs %v cumulating to %v, want %v and %v", s.day, j, s.paidW[j], s.paidCum[j], w, paid)
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
	s := simOf(m)
	if s.catBias != 1 || len(s.paidApps) < 1000 {
		t.Fatalf("profile under test: catBias %v, %d paid apps", s.catBias, len(s.paidApps))
	}
	tablesAreExact(t, s)
	if cap(s.paidDirty) != len(s.paidApps) {
		t.Fatalf("%d paid apps were enqueued for their weight in room for %d", len(s.paidApps), cap(s.paidDirty))
	}
	tablesAreAFold(t, s)
	before := m.cat.NumApps()
	for day := 0; day < 10; day++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		tablesAreAFold(t, s)
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

// simOf returns the simulation of m's key, which m's view belongs to.
func simOf(m *Market) *sim { return &m.v.ch.sim }
