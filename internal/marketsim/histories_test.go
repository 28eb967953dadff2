package marketsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/rng"
)

// inState is how many downloads a user's own state holds before any piece.
const inState = len(userState{}.loc)

// slotBound is the histories invariant: the most slots a user with n
// downloads recorded against the given budget (0: unknown) may hold.
func slotBound(n, budget int) int {
	if n <= inState {
		return 0
	}
	slots := pieceGrowth * n
	if budget > 0 {
		slots = min(slots, budget)
	}
	for room := pieceGrowth * inState; room < n; room *= pieceGrowth {
		slots += pieceHdr
	}
	return slots
}

// TestHistoriesAgainstAModel drives one store with seeded random record /
// has / at / count sequences for users of every budget from 1 to 300, a few
// past ownedThreshold and some of unknown budget, interleaved so that their
// pieces interleave, and holds every answer to a plain slice and map. Each
// record may carve no more than the invariant allows its user; a user whose
// budget fits the state holds nothing else, and one whose budget fits the
// first piece holds exactly the budget.
func TestHistoriesAgainstAModel(t *testing.T) {
	type user struct {
		st     userState
		budget int // 0: unknown
		want   []catalog.AppID
		owns   map[catalog.AppID]bool
		slots  int
	}
	r := rng.New(26)
	var users []*user
	for b := 1; b <= 300; b++ {
		users = append(users, &user{budget: b})
	}
	for _, b := range []int{0, 0, 0, 0, ownedThreshold - 1, ownedThreshold, ownedThreshold + 1, 2*ownedThreshold + 77} {
		users = append(users, &user{budget: b})
	}
	for _, u := range users {
		u.owns = map[catalog.AppID]bool{}
	}
	var h histories
	check := func(u *user) {
		t.Helper()
		if got := u.st.count(); got != len(u.want) {
			t.Fatalf("budget %d: count %d after %d records", u.budget, got, len(u.want))
		}
		if n := len(u.want); n > 0 {
			i := r.Intn(n)
			if got := h.at(&u.st, i); got != u.want[i] {
				t.Fatalf("budget %d, %d recorded: at(%d) = %d, want %d", u.budget, n, i, got, u.want[i])
			}
		}
		// Ids are drawn from twice the longest history, so about half the
		// probes of a long history hit.
		a := catalog.AppID(r.Intn(4 * ownedThreshold))
		if got := h.has(&u.st, a); got != u.owns[a] {
			t.Fatalf("budget %d, %d recorded: has(%d) = %v", u.budget, len(u.want), a, got)
		}
	}
	live := len(users)
	for live > 0 {
		u := users[r.Intn(len(users))]
		check(u)
		limit := u.budget
		if limit == 0 {
			limit = ownedThreshold + 200
		}
		if len(u.want) == limit {
			continue
		}
		a := catalog.AppID(r.Intn(4 * ownedThreshold))
		if u.owns[a] {
			continue // fetch-at-most-once: the market never records a repeat
		}
		before := h.slots
		h.record(&u.st, a, int32(u.budget))
		u.slots += h.slots - before
		u.want, u.owns[a] = append(u.want, a), true
		if bound := slotBound(len(u.want), u.budget); u.slots > bound {
			t.Fatalf("budget %d: %d slots carved for %d downloads, invariant allows %d", u.budget, u.slots, len(u.want), bound)
		}
		if (u.st.owned != nil) != (len(u.want) >= ownedThreshold) {
			t.Fatalf("budget %d: owned set present = %v at %d downloads", u.budget, u.st.owned != nil, len(u.want))
		}
		if len(u.want) == limit {
			live--
			for i, want := range u.want {
				if got := h.at(&u.st, i); got != want {
					t.Fatalf("budget %d: at(%d) = %d at drain, want %d", u.budget, i, got, want)
				}
			}
			switch {
			case u.budget == 0 || u.budget > pieceGrowth*inState:
			case u.budget <= inState && u.slots != 0:
				t.Fatalf("budget %d fits the state and holds %d slots", u.budget, u.slots)
			case u.budget > inState && u.slots != u.budget:
				t.Fatalf("budget %d fits the first piece and holds %d slots", u.budget, u.slots)
			}
		}
	}
	// Blocks double, so they hold under twice what was carved from them.
	var accounted, held int
	for _, u := range users {
		accounted += u.slots
	}
	for _, b := range h.blocks {
		held += cap(b)
	}
	if accounted != h.slots || held > 2*h.slots+minBlock {
		t.Fatalf("users account for %d slots, the store for %d in blocks of %d", accounted, h.slots, held)
	}
}

// TestStockProfilesHoldOnePieceAUser: the four store profiles budget 6 to 14
// downloads a user (2 when scaled far down), which fits the first piece, so
// a free-stream user who has outgrown their state holds one piece of exactly
// their budget — what they held from the first download on when a budget was
// carved whole — and the run as a whole no more than those budgets and the
// paid stream's allowance.
func TestStockProfilesHoldOnePieceAUser(t *testing.T) {
	scales := []float64{0.02, 1}
	if raceEnabled {
		scales = scales[:1] // full-size markets are the plain run's
	}
	for _, name := range catalog.ProfileNames() {
		for _, scale := range scales {
			cfg := DefaultConfig(catalog.Profiles[name].Scale(scale))
			cfg.Days = 10
			m, err := New(cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			allowed := 0
			for uid := range simOf(m).freeUsers {
				u, budget := &simOf(m).freeUsers[uid], simOf(m).freeBudget[uid]
				if u.size == 0 {
					continue
				}
				if u.loc[locOlder] != 0 || u.size != budget {
					t.Fatalf("%s x%v: user %d, budget %d, holds a newest piece of %d after %d older downloads", name, scale, uid, budget, u.size, u.loc[locOlder])
				}
				allowed += int(budget)
			}
			for _, u := range simOf(m).usersPaid {
				allowed += slotBound(u.count(), 0)
			}
			if simOf(m).hist.slots > allowed {
				t.Fatalf("%s x%v: %d slots carved, budgets and the paid stream's allowance come to %d", name, scale, simOf(m).hist.slots, allowed)
			}
		}
	}
}

// BenchmarkMarketPeriod steps cmd/bench's market through all of its 4,096
// days: s/period is where late-period Step cost shows (every user's history
// near its budget, every fetch-at-most-once check a full walk of it) and
// MB-at-drain what a market that has run its whole period holds, the owned
// sets included. 20k users is the CI size, 100k the benchmark's own.
func BenchmarkMarketPeriod(b *testing.B) {
	for _, users := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			var period time.Duration
			var held uint64
			for i := 0; i < b.N; i++ {
				forgetGenesis()
				before := heapAfterGC()
				m, err := New(retentionConfig(users), 1)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				for day := 1; day < m.cfg.Days; day++ {
					if err := m.Step(); err != nil {
						b.Fatal(err)
					}
					if day == 365 {
						b.ReportMetric(time.Since(start).Seconds(), "s/first-365-days")
					}
				}
				period += time.Since(start)
				held += heapAfterGC() - before
				runtime.KeepAlive(m)
			}
			b.ReportMetric(period.Seconds()/float64(b.N), "s/period")
			b.ReportMetric(float64(held)/float64(b.N)/1e6, "MB-at-drain")
		})
	}
}

// BenchmarkOwnedCrossover is the measurement behind ownedThreshold: what one
// download costs a user picked at random from a population whose histories,
// of the given length, add up to far more than the caches hold (a market's
// state at any moment of a Step) — the clustering draw's at(), one has() that
// misses (the usual answer: a candidate is rarely already owned) and, with
// the set, its insertion — answered by the backward scan and by the set.
func BenchmarkOwnedCrossover(b *testing.B) {
	const slots = 16 << 20 // 64 MiB of history whatever the length
	for _, length := range []int{32, 64, 128, 256, 384, 512, 1024} {
		var h histories
		users := make([]userState, slots/length)
		// Every user's j-th download before anyone's next, so that a
		// user's pieces lie as far apart as a market's schedule leaves
		// them. Even ids are owned; odd ids are the misses.
		for j := 0; j < length; j++ {
			for i := range users {
				h.push(&users[i], catalog.AppID(2*((i+j)%length)), int32(length))
			}
		}
		r := rng.New(uint64(length))
		download := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := &users[r.Intn(len(users))]
				miss := h.at(u, r.Intn(length)) + 1
				if h.has(u, miss) {
					b.Fatalf("odd id %d found in a history of even ones", miss)
				}
				if u.owned != nil {
					u.owned[miss] = struct{}{}
					delete(u.owned, miss) // the next probe must miss too
				}
			}
		}
		b.Run(fmt.Sprintf("len=%d/scan", length), download)
		for i := range users {
			users[i].owned = h.set(&users[i])
		}
		b.Run(fmt.Sprintf("len=%d/set", length), download)
	}
}
