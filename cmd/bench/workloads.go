package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"
)

// workload is one named traffic shape and the rig it runs against. The
// hooks left nil take the closed-loop defaults filled in by withDefaults.
type workload struct {
	name string
	why  string
	// rolls marks workloads whose fleet changes day mid-run, which arms
	// the clients' mixed-epoch check.
	rolls bool
	spec  func(sizes) rigSpec
	entry func(*rig) string
	// step is one closed-loop unit of work for client k.
	step func(r *run, c *client, k int)
	// prepare runs once the rig is up, before the warm-up.
	prepare func(*run)
	// warm is the unrecorded lead-in; window the measured phase with all
	// clients; single one client alone, for the untraced/traced pair.
	warm   func(r *run, d time.Duration)
	window func(r *run, d time.Duration) *windowStats
	single func(r *run, c *client, d time.Duration)
	// verify runs after the measured phases.
	verify func(*run) error
}

func withDefaults(w workload) *workload {
	if w.warm == nil {
		w.warm = func(r *run, d time.Duration) { r.closedLoop(r.clients[:], d) }
	}
	if w.window == nil {
		w.window = func(r *run, d time.Duration) *windowStats {
			return r.measure(r.sz.slice, func(func()) { r.closedLoop(r.clients[:], d) })
		}
	}
	if w.single == nil {
		w.single = func(r *run, c *client, d time.Duration) { r.closedLoop([]*client{c}, d) }
	}
	return &w
}

// crawlSites is how many stores crawl-direct crawls, one after another.
const crawlSites = 20

var workloads = []*workload{
	withDefaults(workload{
		name:  "browse-fleet",
		why:   "closed loop through gateway and 4 shards, detail GETs plus every 8th op a cursor page: scatter and k-way merge dominate; edge absent, WAL idle",
		spec:  func(sz sizes) rigSpec { return rigSpec{Apps: sz.apps, Shards: 4, Nodes: 1} },
		entry: func(rg *rig) string { return rg.gatewayURL },
		step: func(r *run, c *client, k int) {
			e := r.event(k)
			r.do(c, detailReq(e.User, e.App, c.n%8 == 0))
			if r.next[k]%8 == 0 {
				cur := r.state.(*[numClients]string)
				// One page in eight is decoded row by row; the rest only
				// have their next_cursor read.
				if resp := r.do(c, listReq(e.User, cur[k], r.next[k]%64 == 0)); resp != nil {
					cur[k] = resp.next // "" after the last page: the walk restarts
				}
			}
		},
		prepare: func(r *run) { r.state = new([numClients]string) },
		verify:  verifyAgainstReference,
	}),
	withDefaults(workload{
		name:  "browse-edge",
		why:   "same detail stream through an LRU edge holding 5% of the detail bytes: the edge serves most requests, gateway and shards see only the misses",
		spec:  func(sz sizes) rigSpec { return rigSpec{Apps: sz.apps, Shards: 4, Nodes: 1, Edge: true} },
		entry: func(rg *rig) string { return rg.edgeURL },
		step: func(r *run, c *client, k int) {
			e := r.event(k)
			r.do(c, detailReq(e.User, e.App, c.n%8 == 0))
		},
		verify: verifyAgainstReference,
	}),
	withDefaults(workload{
		name: "crawl-direct",
		why:  "fixed work, twenty unsharded stores crawled in turn: cold crawl, same-day conditional re-crawl, day-roll, next-day re-crawl: fills, 304s and cross-day carry, the read layer as a scan",
		spec: func(sz sizes) rigSpec {
			return rigSpec{Apps: sz.siteApps, Nodes: crawlSites, CommentUsers: sz.commentUsers / crawlSites}
		},
		entry:   func(rg *rig) string { return rg.nodeURLs[0] },
		prepare: func(r *run) { r.state = &crawlState{} },
		// No warm-up: the first pass over each store is the cold crawl.
		warm: func(*run, time.Duration) {},
		// One slice per store crawled. A traced run crawls four tenths of
		// them in its counter window, as its timed windows are that long.
		window: func(r *run, d time.Duration) *windowStats {
			cs := r.state.(*crawlState)
			sites := crawlSites
			if r.trace {
				sites = crawlSites * 4 / 10
			}
			return r.measure(0, func(cut func()) {
				for site := 0; site < sites; site++ {
					if site > 0 {
						cut()
					}
					cs.crawl(r, site)
				}
			})
		},
		single: func(r *run, c *client, _ time.Duration) { r.state.(*crawlState).recrawl(r, c) },
		verify: func(r *run) error { return errors.Join(r.state.(*crawlState).errs...) },
	}),
	withDefaults(workload{
		name:  "mixed-rw-roll",
		why:   "closed loop through the gateway, 20% of events entering the write funnel, a fleet day-roll in every slice of the window: WAL, absorbWrites, snapshot build and epoch swap beside reads",
		rolls: true,
		spec: func(sz sizes) rigSpec {
			return rigSpec{Apps: sz.apps, Shards: 4, CommentUsers: sz.commentUsers}
		},
		entry:   func(rg *rig) string { return rg.gatewayURL },
		prepare: func(r *run) { r.state = &mixedState{baseline: map[int32]int64{}} },
		step:    mixedEvent,
		window: func(r *run, d time.Duration) *windowStats {
			return r.measure(r.sz.slice, func(func()) {
				r.withRolls(r.sz.slice, true, func() { r.closedLoop(r.clients[:], d) })
			})
		},
		single: func(r *run, c *client, d time.Duration) {
			r.withRolls(r.sz.slice, false, func() { r.closedLoop([]*client{c}, d) })
		},
		verify: verifyWrites,
	}),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- fleet workloads: byte-for-byte against a single node -------------------

// verifyAgainstReference replays the 1-in-256 sample of detail responses
// against the same-seed unsharded node built at set-up: through any
// number of tiers the body and the ETag must be the bytes one node
// serves.
func verifyAgainstReference(r *run) error {
	h := r.rig.nodes[0].Handler()
	checked := 0
	for _, c := range r.clients {
		for _, k := range c.kept {
			req := httptest.NewRequest(http.MethodGet, apiPrefix+"/apps/"+strconv.Itoa(int(k.app)), nil)
			req.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if err := sameResponse(k, rec.Header().Get("Etag"), rec.Header().Get("Content-Encoding"), rec.Body.Bytes()); err != nil {
				return err
			}
			checked++
		}
	}
	r.out.Samples["reference_compared"] = checked
	if checked == 0 {
		return errors.New("no responses were sampled for the reference comparison")
	}
	return nil
}

func sameResponse(k kept, etag, encoding string, body []byte) error {
	if k.etag != etag || k.encoding != encoding || string(k.body) != string(body) {
		return fmt.Errorf("app %d differs from the single node: etag %s vs %s, %d vs %d body bytes",
			k.app, k.etag, etag, len(k.body), len(body))
	}
	return nil
}

// --- mixed-rw-roll ----------------------------------------------------------

// writeSample picks the apps whose download counts are followed from the
// first write to after the drain: one in 64.
func writeSample(app int32) bool { return app%64 == 0 }

type mixedState struct {
	mu       sync.Mutex
	baseline map[int32]int64 // downloads of a sampled app when first written
}

// mixedEvent plays client k's next event on c: the detail GET, then
// whatever the write funnel adds.
func mixedEvent(r *run, c *client, k int) {
	e := r.event(k)
	f := funnelFor(r.seed, e)
	followed := f.download && writeSample(e.App)
	resp := r.do(c, detailReq(e.User, e.App, followed || c.n%8 == 0))
	if !f.download {
		return
	}
	if followed && resp != nil {
		st := r.state.(*mixedState)
		st.mu.Lock()
		if _, ok := st.baseline[e.App]; !ok {
			st.baseline[e.App] = resp.downloads
		}
		st.mu.Unlock()
	}
	if r.do(c, writeReq(e.User, e.App, "download", 0)) != nil && followed {
		c.acked[e.App]++
	}
	if f.rate {
		r.do(c, writeReq(e.User, e.App, "rate", f.rateStars))
	}
	if f.comment {
		r.do(c, writeReq(e.User, e.App, "comments", f.commentStars))
	}
}

// verifyWrites drains the write path — two rolls with no client traffic,
// the first merging what the log still holds, the second proving nothing
// was left behind — and checks its ledger: every acknowledged write
// merged, none pending, no epoch skew surfaced, and each followed app's
// download count grown by at least its acks (the market's own simulated
// downloads only add to it).
func verifyWrites(r *run) error {
	for i := 0; i < 2; i++ {
		if err := r.rollOnce(false); err != nil {
			return err
		}
	}
	var errs []error
	var accepted, merged, pending int64
	for _, s := range r.rig.shards {
		st := s.WALStats()
		accepted += st.Accepted
		merged += st.Merged
		pending += st.Pending
	}
	if accepted != merged || pending != 0 {
		errs = append(errs, fmt.Errorf("wal ledger: accepted %d, merged %d, pending %d", accepted, merged, pending))
	}
	if accepted == 0 {
		errs = append(errs, errors.New("no write was accepted"))
	}
	if skews := r.rig.gateway.Stats().EpochSkews; skews != 0 {
		errs = append(errs, fmt.Errorf("gateway surfaced %d epoch skews", skews))
	}
	st := r.state.(*mixedState)
	acked := map[int32]int{}
	for _, c := range r.clients {
		for app, n := range c.acked {
			acked[app] += n
		}
	}
	c := r.clients[0]
	for app, n := range acked {
		resp := c.do(detailReq(0, app, true))
		if resp == nil {
			continue // counted as a failed request
		}
		if grew := resp.downloads - st.baseline[app]; grew < int64(n) {
			errs = append(errs, fmt.Errorf("app %d: %d downloads acked, count grew by %d", app, n, grew))
		}
	}
	r.out.Samples["apps_followed"] = len(acked)
	return errors.Join(errs...)
}

// --- crawl-direct -----------------------------------------------------------

// crawlState is what a crawler remembers of the store it is crawling
// between passes: the cursor chain and every document's validator.
type crawlState struct {
	cursors  []string // cursors[i] addresses page i; cursors[0] = ""
	pageTags []string
	ids      []int32
	// detail[id] and comments[id] are app id's validators. Ids are dense
	// and dealt to the clients round-robin, so no two touch the same
	// element and the slices need no lock.
	detail   []string
	comments []string
	mu       sync.Mutex
	errs     []error
}

func (cs *crawlState) fail(format string, args ...any) {
	cs.mu.Lock()
	if len(cs.errs) < 8 {
		cs.errs = append(cs.errs, fmt.Errorf(format, args...))
	}
	cs.mu.Unlock()
}

const (
	passCold    = iota // unconditional: every answer a 200
	passSameDay        // conditional, nothing changed: every answer a 304
	passNextDay        // conditional after a roll: 304 exactly where the validator still holds
)

// crawl is the three passes over one store. Each pass walks the listing
// on one client, then all clients fetch detail and comments for every
// app, ids dealt round-robin. Pass wall times accumulate in the result
// file over the stores crawled.
func (cs *crawlState) crawl(r *run, site int) {
	for _, c := range r.clients {
		c.base = r.rig.nodeURLs[site]
	}
	*cs = crawlState{errs: cs.errs}
	passTime := func(name string, start time.Time) {
		m := r.out.Extra[name]
		r.out.Extra[name] = metric{m.Value + time.Since(start).Seconds(), "s"}
	}

	start := time.Now()
	cs.walk(r, false)
	if want, err := r.rig.nodeApps(site); err != nil {
		cs.fail("%v", err)
	} else if len(cs.ids) != want {
		cs.fail("store %d: pass 1 listed %d apps, /stats says %d", site, len(cs.ids), want)
	}
	for i, id := range cs.ids {
		if id != int32(i) {
			cs.fail("store %d: pass 1 lists app %d at position %d", site, id, i)
			break
		}
	}
	cs.fetchAll(r, passCold)
	passTime("client.crawl_cold_s", start)

	start = time.Now()
	cs.walk(r, true)
	cs.fetchAll(r, passSameDay)
	passTime("client.crawl_reval_s", start)

	start = time.Now()
	if err := r.rig.nodes[site].AdvanceDay(); err != nil {
		cs.fail("store %d: day-roll: %v", site, err)
		return
	}
	r.rolls = append(r.rolls, time.Since(start))
	cs.walk(r, true)
	cs.fetchAll(r, passNextDay)
	passTime("client.crawl_nextday_s", start)
}

// walk follows the cursor chain from the start. Unconditionally it
// records the chain; conditionally it replays the recorded chain with
// validators, following next_cursor only where a page changed or the
// catalog grew past the recorded end.
func (cs *crawlState) walk(r *run, conditional bool) {
	c := r.clients[0]
	if !conditional {
		cs.cursors, cs.pageTags, cs.ids = []string{""}, nil, nil
	}
	var ids []int32
	for i := 0; i < len(cs.cursors); i++ {
		req := listReq(0, cs.cursors[i], true)
		if conditional && i < len(cs.pageTags) {
			req.inm = cs.pageTags[i]
		}
		resp := r.do(c, req)
		if resp == nil {
			return
		}
		if resp.status == http.StatusNotModified {
			continue // the recorded page, rows and next_cursor, still stands
		}
		if req.inm != "" && resp.etag == req.inm {
			cs.fail("page %d: 200 with the validator it was asked about", i)
		}
		if i < len(cs.pageTags) {
			cs.pageTags[i] = resp.etag
		} else {
			cs.pageTags = append(cs.pageTags, resp.etag)
		}
		ids = append(ids, resp.ids...)
		if resp.next != "" && i+1 == len(cs.cursors) {
			cs.cursors = append(cs.cursors, resp.next)
		}
	}
	if !conditional {
		cs.ids = ids
		return
	}
	// A changed page repeats ids already known; only ids past the recorded
	// end are new apps.
	for _, id := range ids {
		if int(id) >= len(cs.ids) {
			if int(id) != len(cs.ids) {
				cs.fail("new app %d skips past %d", id, len(cs.ids))
			}
			cs.ids = append(cs.ids, id)
		}
	}
}

// fetchAll fetches detail and comments for every known app and checks
// each status against what the pass allows.
func (cs *crawlState) fetchAll(r *run, pass int) {
	for len(cs.detail) < len(cs.ids) {
		cs.detail, cs.comments = append(cs.detail, ""), append(cs.comments, "")
	}
	var wg sync.WaitGroup
	for k, c := range r.clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < len(cs.ids); i += numClients {
				id := cs.ids[i]
				cs.fetch(r, c, pass, detailReq(id, id, i%8 == 0), &cs.detail[id])
				cs.fetch(r, c, pass, commentsReq(id, id, i%8 == 0), &cs.comments[id])
			}
		}(k, c)
	}
	wg.Wait()
}

// fetch issues one document request; tag holds the document's validator
// from the previous pass and receives the new one.
func (cs *crawlState) fetch(r *run, c *client, pass int, req *request, tag *string) {
	if pass != passCold {
		req.inm = *tag
	}
	resp := r.do(c, req)
	if resp == nil {
		return
	}
	switch {
	case resp.status == http.StatusNotModified:
		return
	case pass == passSameDay:
		cs.fail("%s: pass 2 answered %d, want 304", req.path, resp.status)
	case req.inm != "" && resp.etag == req.inm:
		cs.fail("%s: 200 with the validator it was asked about", req.path)
	}
	*tag = resp.etag
}

// recrawl is the crawl's single-client pass: the store crawled last,
// listing pages then detail and comments, unconditionally (warm by now),
// so the traced and the untraced pass do identical work.
func (cs *crawlState) recrawl(r *run, c *client) {
	for _, cur := range cs.cursors {
		r.do(c, listReq(0, cur, true))
	}
	for _, id := range cs.ids {
		r.do(c, detailReq(id, id, id%8 == 0))
		r.do(c, commentsReq(id, id, id%8 == 0))
	}
}
