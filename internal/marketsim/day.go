package marketsim

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"planetapps/internal/catalog"
)

// dayEntry is one day of a key's simulation, read in place by every
// same-key market on that day. The first market to step past it simulates
// the next day once and links it as next; the others adopt that entry and
// apply its log to their own counts, at the cost of the day's changes. Links
// point forward only, so an entry lives as long as a market is on it or on
// an entry before it, and a day every market has left is garbage.
//
// refs, next, building and inPlace change under chainMu only. The sim is
// written only by a market stepping the entry in place, which it does only
// when refs says nobody else reads it or can reach it and after setting
// inPlace, so that no New joins it. An export may still hold the day's
// catalog rows then: exported says so, and the step moves the rows onto a
// copy before it writes one.
type dayEntry struct {
	sim
	// refs counts the markets on the entry, plus one while a live entry
	// links to it as its next: a market behind can still adopt it.
	refs int
	next *dayEntry
	// building is closed when the market simulating next has linked it.
	building chan struct{}
	// inPlace is set when a market steps the entry in place: it is no
	// longer the day it was, and nobody may join it.
	inPlace bool
	// exported is set by every export of the entry's day (same-key markets
	// export it concurrently) and cleared by the in-place step that copies
	// the rows those exports hold.
	exported atomic.Bool
}

// chainMu guards every dayEntry's refs, next, building and inPlace.
var chainMu sync.Mutex

// join puts a new market on e, unless a market steps it in place or every
// market on it has moved on (its next may then have been stepped in place).
func (e *dayEntry) join() bool {
	chainMu.Lock()
	defer chainMu.Unlock()
	if e.inPlace || e.refs == 0 && e.next != nil {
		return false
	}
	e.refs++
	return true
}

// leave takes a market off e; an entry nobody is on and nobody can reach
// any more releases its hold on the next.
func (e *dayEntry) leave() {
	for ; e != nil; e = e.next {
		if e.refs--; e.refs > 0 {
			return
		}
	}
}

// advance moves a market on e to the next day's entry and returns it: the
// next entry if a market has linked one, else e itself stepped in place if
// no other market reads e or can reach it, else a stepped copy of e, linked
// as e's next for the others. A market that finds a sibling simulating the
// copy waits for it rather than simulating the day twice.
func (e *dayEntry) advance() *dayEntry {
	chainMu.Lock()
	for e.building != nil {
		done := e.building
		chainMu.Unlock()
		<-done
		chainMu.Lock()
	}
	if n := e.next; n != nil {
		n.refs++
		e.leave()
		chainMu.Unlock()
		return n
	}
	if e.refs == 1 {
		e.inPlace = true
		chainMu.Unlock()
		e.sim.step(true, e.exported.Swap(false))
		return e
	}
	done := make(chan struct{})
	e.building = done
	chainMu.Unlock()
	var n *dayEntry
	defer func() {
		chainMu.Lock()
		e.building = nil
		if n != nil {
			e.next = n
			n.refs = 2 // e's link, and this market
			e.leave()
		}
		chainMu.Unlock()
		close(done)
	}()
	n = &dayEntry{sim: *e.sim.step(false, false)}
	return n
}

// step simulates the day after s's, on s itself or on a copy of it, and
// returns the state it stepped; in place, it first moves rows an export
// holds onto a copy. The day's first draw is its arrival count, which
// sizes either copy.
func (s *sim) step(inPlace, rowsExported bool) *sim {
	r := *s.r
	arrivals := r.Poisson(s.cfg.Profile.NewAppsPerDay)
	switch {
	case !inPlace:
		s = s.clone(arrivals)
	case rowsExported:
		s.cat.Apps = withRoom(s.cat.Apps, arrivals)
	}
	*s.r = r
	s.day++
	s.log.rows, s.log.draws = s.log.rows[:0], s.log.draws[:0]
	s.arrivals(arrivals)
	s.updatesAndPrices()
	s.syncTables()
	s.simulateDownloads()
	s.syncDevNames()
	return s
}

// clone copies everything a simulated day writes, each array an arrival
// extends with room for the arrivals the calling step is about to add, so
// that step does not copy it again; a later day's arrival grows it by
// append. What stays shared is only read, or appended to at cap == len, so
// that the first append moves it: the genesis (schedule, freeBudget), the
// category names, every name string, and the catalog's member lists, which
// are clipped here because an insert shifts a list in place when it has
// room.
func (s *sim) clone(arrivals int) *sim {
	c := *s
	cat := *s.cat
	cat.Apps = withRoom(cat.Apps, arrivals)
	cat.Categories = slices.Clone(cat.Categories)
	for i := range cat.Categories {
		cat.Categories[i].Apps = slices.Clip(cat.Categories[i].Apps)
	}
	cat.Developers = slices.Clone(cat.Developers)
	for i := range cat.Developers {
		cat.Developers[i].Apps = slices.Clip(cat.Developers[i].Apps)
	}
	c.cat = &cat
	r := *s.r
	c.r = &r
	c.log = dayLog{}

	c.appeal = withRoom(s.appeal, arrivals)
	c.updateRate = withRoom(s.updateRate, arrivals)
	c.isPaid = withRoom(s.isPaid, arrivals)
	c.paidIdx = withRoom(s.paidIdx, arrivals)
	c.devNames = append(make([]string, 0, devNamesRoom(len(s.devNames))), s.devNames...)

	c.freeCum = withRoom(s.freeCum, arrivals)
	c.freeApps = withRoom(s.freeApps, arrivals)
	c.catCum = cloneEach(s.catCum)
	c.catApps = cloneEach(s.catApps)
	c.paidCum = withRoom(s.paidCum, arrivals)
	c.paidApps = withRoom(s.paidApps, arrivals)
	c.paidW = withRoom(s.paidW, arrivals)
	c.paidDirty = make([]int32, 0, len(s.paidApps))
	c.paidPortfolio = maps.Clone(s.paidPortfolio)
	c.devPaid = maps.Clone(s.devPaid)
	for dev, js := range c.devPaid {
		c.devPaid[dev] = slices.Clone(js)
	}
	c.freeCumIdx.buckets = slices.Clone(s.freeCumIdx.buckets)
	c.catCumIdx = slices.Clone(s.catCumIdx)
	for i := range c.catCumIdx {
		c.catCumIdx[i].buckets = slices.Clone(c.catCumIdx[i].buckets)
	}

	c.freeUsers = slices.Clone(s.freeUsers)
	for i := range c.freeUsers {
		c.freeUsers[i].owned = maps.Clone(c.freeUsers[i].owned)
	}
	c.hist.blocks = slices.Clone(s.hist.blocks)
	for i, b := range c.hist.blocks {
		c.hist.blocks[i] = append(make([]catalog.AppID, 0, cap(b)), b...)
	}
	// Paid users' states move into one slab of their own; the next new paid
	// user opens another.
	slab := make([]userState, 0, len(s.usersPaid))
	users := make(map[int32]*userState, len(s.usersPaid))
	for uid, u := range s.usersPaid {
		slab = append(slab, *u)
		v := &slab[len(slab)-1]
		v.owned = maps.Clone(v.owned)
		users[uid] = v
	}
	c.paidSlab, c.usersPaid = slab, users
	return &c
}
