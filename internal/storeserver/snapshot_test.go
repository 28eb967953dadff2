package storeserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
)

// TestSnapshotConsistencyUnderAdvanceDay hammers the read path while
// AdvanceDay swaps snapshots mid-flight and asserts every response is
// internally consistent with exactly one day's market state — the property
// the RCU snapshot design exists to provide. Run under -race this also
// proves the pointer swap itself is sound.
//
// The oracle is a shadow market: marketsim is deterministic in (cfg,
// seed), so stepping an identical market upfront yields the exact per-day
// facts (app count, total downloads, app 0's counters) the served
// snapshots must match. A response mixing two days — say, a day-7 total
// under a day-8 header — can only match a recorded day by colliding on
// every checked field, which the strictly growing download counts rule
// out.
func TestSnapshotConsistencyUnderAdvanceDay(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05))
	mcfg.Days = 16
	const seed = 7

	type dayFacts struct {
		apps  int
		total int64
		app0  int64
		ver0  int
	}
	facts := map[int]dayFacts{}
	shadow, err := marketsim.New(mcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	record := func(m *marketsim.Market) {
		e := m.Export()
		facts[e.Day()] = dayFacts{
			apps:  e.NumApps(),
			total: e.TotalDownloads(),
			app0:  e.Downloads(0),
			ver0:  e.App(0).Versions,
		}
	}
	record(shadow)
	for shadow.Day() < mcfg.Days-1 {
		if err := shadow.Step(); err != nil {
			t.Fatal(err)
		}
		record(shadow)
	}

	m, err := marketsim.New(mcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 10})
	h := s.Handler()

	errc := make(chan error, 1)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	get := func(path string) (*httptest.ResponseRecorder, int) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			report("%s: status %d", path, rec.Code)
			return rec, -1
		}
		day, err := strconv.Atoi(rec.Header().Get("X-Store-Day"))
		if err != nil || day < 0 || day >= mcfg.Days {
			report("%s: bad X-Store-Day %q", path, rec.Header().Get("X-Store-Day"))
			return rec, -1
		}
		return rec, day
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}

				if rec, day := get("/api/v1/stats"); day >= 0 {
					var st StatsJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
						report("stats: %v", err)
						continue
					}
					f := facts[day]
					if st.Day != day || st.Apps != f.apps || st.TotalDownloads != f.total {
						report("stats mixed days: header day %d, body %+v, want %+v", day, st, f)
					}
				}

				if rec, day := get("/api/v1/apps"); day >= 0 {
					var pg CursorPageJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &pg); err != nil {
						report("list: %v", err)
						continue
					}
					if f := facts[day]; pg.Total != f.apps {
						report("list mixed days: header day %d says %d apps, body says %d", day, f.apps, pg.Total)
					}
				}

				if rec, day := get("/api/v1/apps/0"); day >= 0 {
					var app AppJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &app); err != nil {
						report("detail: %v", err)
						continue
					}
					f := facts[day]
					if app.ID != 0 || app.Downloads != f.app0 || app.Version != f.ver0 {
						report("detail mixed days: header day %d, got downloads=%d version=%d, want %d/%d",
							day, app.Downloads, app.Version, f.app0, f.ver0)
					}
				}

				if rec, day := get("/api/v1/apps/0/comments"); day >= 0 {
					var cs []CommentJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
						report("comments: %v", err)
					}
				}
			}
		}()
	}

	for day := 1; day < mcfg.Days; day++ {
		if err := s.AdvanceDay(); err != nil {
			t.Fatalf("advance to day %d: %v", day, err)
		}
		if got := s.Day(); got != day {
			t.Fatalf("Day() = %d after advancing to %d", got, day)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestExportIsolation verifies the copy-on-write contract: an export taken
// before Step reflects none of the mutations the step applies.
func TestExportIsolation(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05))
	mcfg.Days = 5
	m, err := marketsim.New(mcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Export()
	apps0, total0 := before.NumApps(), before.TotalDownloads()
	downloads0 := make([]int64, apps0)
	for i := range downloads0 {
		downloads0[i] = before.Downloads(i)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	after := m.Export()
	if before.Day() != 0 || after.Day() != 1 {
		t.Fatalf("days %d -> %d, want 0 -> 1", before.Day(), after.Day())
	}
	if before.NumApps() != apps0 || before.TotalDownloads() != total0 {
		t.Fatal("export mutated by Step")
	}
	for i, d := range downloads0 {
		if got := before.Downloads(i); got != d {
			t.Fatalf("export download slice aliased live counts (app %d: %d -> %d)", i, d, got)
		}
	}
	if after.TotalDownloads() <= before.TotalDownloads() {
		t.Fatalf("downloads did not grow: %d -> %d", before.TotalDownloads(), after.TotalDownloads())
	}
}
