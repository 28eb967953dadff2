package marketsim

import (
	"reflect"
	"slices"
	"sync"
	"testing"

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
