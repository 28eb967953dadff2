package marketsim

import (
	"slices"
	"sync"
	"sync/atomic"

	"planetapps/internal/catalog"
)

// chain is a key's one simulation. It is only ever stepped forward, in
// place, one day at a time, under mu, by the market that first steps past
// the frontier day; every other market of the key reads the day views the
// steps link.
type chain struct {
	mu  sync.Mutex
	sim sim
}

// dayView is one day of a key's simulation as its markets read it: the
// catalog header and rows, the name tables and the day's log. A view is
// linked forward to the next day's by the step past it, so a day nobody
// holds is garbage.
//
// A step writes the simulation in place, so before it writes it moves what
// a view has handed out onto copies: the rows, if a second market is on the
// day or an export or Catalog holds them (joined, lent), and the categories
// and developers if Catalog took them (headerKept), which a view holds only
// from then on. Rows that nobody held are written in place, and the view
// lets go of them (moved); a market that later adopts the day from an
// earlier one puts them back from its own day's rows and the values the
// day's log kept for it (behind). Nothing counts the markets behind, so once
// a day has had a second market every later day keeps its log whole.
type dayView struct {
	ch       *chain
	day      int
	cat      catalog.Catalog
	catNames []string
	devNames []string
	log      dayLog
	lent     atomic.Bool

	// The rest changes under ch.mu.
	next       *dayView
	taken      bool // a market is on the day
	joined     bool // a second market is on it
	behind     bool // a market may adopt it from an earlier day
	moved      bool // the step past it wrote its rows in place
	headerKept bool // cat's categories and developers are the day's for good
}

// view returns the simulation's day as a view, its rows clipped so that an
// append through them could not write the simulation's array.
func (c *chain) view() *dayView {
	s := &c.sim
	v := &dayView{ch: c, day: s.day, cat: *s.cat, catNames: s.catNames, devNames: slices.Clip(s.devNames), log: s.log}
	v.cat.Apps = slices.Clip(v.cat.Apps)
	v.cat.Categories, v.cat.Developers = nil, nil
	return v
}

// take puts another market on v, unless the step past it has written its
// rows or its log: only a day a second market was on keeps both, and so
// does every day after it.
func (v *dayView) take(cat *catalog.Catalog) bool {
	v.ch.mu.Lock()
	defer v.ch.mu.Unlock()
	if v.next != nil && !v.joined {
		return false
	}
	v.joined = v.joined || v.taken
	v.taken = true
	*cat = v.cat
	return true
}

// advance moves a market on v, whose header is cat, to the next day and
// returns that day's view: the linked one if a market has stepped past v,
// its rows put back if the step past it wrote them in place, else the day
// the market simulates from v, the frontier.
func (v *dayView) advance(cat *catalog.Catalog) *dayView {
	c := v.ch
	c.mu.Lock()
	defer c.mu.Unlock()
	n := v.next
	switch {
	case n == nil:
		n = c.step(v)
	case n.next == nil:
		n.joined = true
	case n.moved:
		// The log lists the day's arrivals first, in order.
		rows := slices.Clone(v.cat.Apps)
		for i, id := range n.log.rows {
			if int(id) == len(rows) {
				rows = append(rows, n.log.vals[i])
			} else {
				rows[id] = n.log.vals[i]
			}
		}
		n.cat.Apps, n.moved = slices.Clip(rows), false
	}
	*cat = n.cat
	return n
}

// step simulates the day after the frontier v's in place and links its view
// as v's next. The day's first draw is its arrival count, which sizes the
// copies.
func (c *chain) step(v *dayView) *dayView {
	s := &c.sim
	arrivals := s.r.Poisson(s.cfg.Profile.NewAppsPerDay)
	if v.joined || v.lent.Load() {
		s.cat.Apps = withRoom(s.cat.Apps, arrivals)
	} else {
		v.cat.Apps, v.moved = nil, true
	}
	if v.headerKept {
		// Catalog handed the header out. Every member list is clipped: an
		// insert shifts a list in place when it has room.
		s.cat.Categories = slices.Clone(s.cat.Categories)
		s.cat.Developers = withRoom(s.cat.Developers, arrivals)
		for i := range s.cat.Categories {
			s.cat.Categories[i].Apps = slices.Clip(s.cat.Categories[i].Apps)
		}
		for i := range s.cat.Developers {
			s.cat.Developers[i].Apps = slices.Clip(s.cat.Developers[i].Apps)
		}
	}
	// A market on v, or one behind it, still reads v's log.
	behind := v.joined || v.behind
	if behind {
		s.log = dayLog{}
	} else {
		s.log = dayLog{rows: s.log.rows[:0], draws: s.log.draws[:0]}
	}
	s.day++
	s.arrivals(arrivals)
	s.updatesAndPrices()
	s.syncTables()
	s.simulateDownloads()
	s.syncDevNames()
	if behind {
		s.log.vals = make([]catalog.App, len(s.log.rows))
		for i, id := range s.log.rows {
			s.log.vals[i] = s.cat.Apps[id]
		}
	}
	n := c.view()
	n.taken, n.behind = true, behind
	v.next = n
	return n
}

// header returns v's day's catalog header, taking its categories and
// developers from the simulation: on the frontier day its own, which the
// step past the day then moves off; on an earlier day cut from them. A day
// only adds apps, each at its developer's end and inside its category by
// quality, so a day's member lists are a later day's less the apps that came
// after; they are cut cap == len from one array.
func (v *dayView) header() catalog.Catalog {
	v.ch.mu.Lock()
	defer v.ch.mu.Unlock()
	later := v.ch.sim.cat
	switch {
	case v.headerKept:
	case v.next == nil:
		v.cat.Categories, v.cat.Developers = slices.Clip(later.Categories), slices.Clip(later.Developers)
	default:
		n := len(v.cat.Apps)
		v.cat.Categories = slices.Clone(later.Categories)
		v.cat.Developers = slices.Clone(later.Developers[:len(v.devNames)])
		ids := make([]catalog.AppID, 0, 2*n)
		for i := range v.cat.Categories {
			v.cat.Categories[i].Apps, ids = appsBefore(ids, v.cat.Categories[i].Apps, n)
		}
		for i := range v.cat.Developers {
			v.cat.Developers[i].Apps, ids = appsBefore(ids, v.cat.Developers[i].Apps, n)
		}
	}
	v.headerKept = true
	v.lent.Store(true)
	return v.cat
}

// appsBefore appends the apps of list below n to ids and returns them,
// clipped, and ids.
func appsBefore(ids, list []catalog.AppID, n int) ([]catalog.AppID, []catalog.AppID) {
	lo := len(ids)
	for _, id := range list {
		if int(id) < n {
			ids = append(ids, id)
		}
	}
	return ids[lo:len(ids):len(ids)], ids
}
