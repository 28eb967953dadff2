package edgecache

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"planetapps/internal/apiwire"
	"planetapps/internal/cache"
	"planetapps/internal/model"
	"planetapps/internal/prefetch"
)

// docInfo is what classify extracts from one cached document: the catalog
// app id for detail pages (-1 otherwise), the category the policy
// partitions on, and the popularity signal the warmer ranks by.
type docInfo struct {
	appID     int32
	cat       string
	downloads int64
}

// Synthetic categories for non-detail documents: the category-aware
// policy needs every cached key in some partition, and route kind is the
// natural one for documents without an app category. The NUL prefix keeps
// them disjoint from real category names.
const (
	catList     = "\x00list"
	catStats    = "\x00stats"
	catComments = "\x00comments"
	catOther    = "\x00other"
	catDetail   = "\x00detail" // detail page whose body did not parse
)

// classify derives docInfo from a request key and the origin body. Detail
// pages contribute their real category and download count — the signals
// the prefetch warmer learns from; every other document is binned by
// route.
func classify(key string, body []byte) docInfo {
	path := key
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	kind, id, idOK := apiwire.ParsePath(path)
	switch kind {
	case apiwire.List:
		return docInfo{appID: -1, cat: catList}
	case apiwire.Stats:
		return docInfo{appID: -1, cat: catStats}
	case apiwire.Comments:
		return docInfo{appID: -1, cat: catComments}
	case apiwire.Detail:
		if !idOK {
			break
		}
		var doc struct {
			ID        int32  `json:"id"`
			Category  string `json:"category"`
			Downloads int64  `json:"downloads"`
		}
		if json.Unmarshal(body, &doc) == nil && doc.Category != "" {
			return docInfo{appID: id, cat: doc.Category, downloads: doc.Downloads}
		}
		return docInfo{appID: id, cat: catDetail}
	}
	return docInfo{appID: -1, cat: catOther}
}

// internCat returns the dense id for a category name. Caller holds s.mu.
func (s *Server) internCat(name string) int32 {
	if id, ok := s.cats[name]; ok {
		return id
	}
	id := int32(len(s.cats))
	s.cats[name] = id
	return id
}

// warmer implements prefetch-driven warming: it learns each app's
// category and popularity from the detail pages flowing through the
// cache, tracks a short per-client request history, and after every
// detail-page serve asks prefetch.CategoryTop which detail pages that
// client is likely to want next — then fetches the missing ones into the
// cache in the background, through the same single-flight path client
// misses use.
type warmer struct {
	s      *Server
	budget int

	mu        sync.Mutex
	catID     map[string]int32 // category name -> dense cluster index
	catOfApp  map[int32]int32  // appID -> cluster index
	downloads map[int32]int64  // appID -> popularity signal
	maxApp    int32
	learns    int // learn events since start
	built     int // learns at last ClusterMap rebuild
	cm        *model.ClusterMap
	hist      map[string][]int32 // client -> recent detail appIDs
	clients   *cache.LRU[string] // keeps hist to the maxClients most recently seen
	inflight  map[string]bool    // warm URIs queued or fetching

	ch   chan string
	quit chan struct{}
	wg   sync.WaitGroup
}

const (
	historyDepth = 8    // recent detail pages remembered per client
	maxClients   = 4096 // history table bound
	rebuildEvery = 64   // learn events between ClusterMap rebuilds
	warmQueue    = 256  // pending warm fetches; overflow is dropped
)

func newWarmer(s *Server) *warmer {
	w := &warmer{
		s:         s,
		budget:    s.cfg.PrefetchBudget,
		catID:     map[string]int32{},
		catOfApp:  map[int32]int32{},
		downloads: map[int32]int64{},
		hist:      map[string][]int32{},
		clients:   cache.NewLRU[string](maxClients),
		inflight:  map[string]bool{},
		ch:        make(chan string, warmQueue),
		quit:      make(chan struct{}),
	}
	w.clients.OnEvict(func(client string) { delete(w.hist, client) })
	for i := 0; i < s.cfg.PrefetchWorkers; i++ {
		w.wg.Add(1)
		go w.worker()
	}
	return w
}

func (w *warmer) stop() {
	close(w.quit)
	w.wg.Wait()
}

// learn records one detail page's category and popularity.
func (w *warmer) learn(appID int32, cat string, downloads int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id, ok := w.catID[cat]
	if !ok {
		id = int32(len(w.catID))
		w.catID[cat] = id
	}
	if appID > w.maxApp {
		w.maxApp = appID
	}
	if prev, seen := w.catOfApp[appID]; !seen || prev != id || w.downloads[appID] != downloads {
		w.learns++
	}
	w.catOfApp[appID] = id
	w.downloads[appID] = downloads
}

// rebuild regenerates the ClusterMap from the learned tables: one cluster
// per category, members in descending download order (ties by app id) —
// the within-cluster popularity order CategoryTop expects. Apps the edge
// has not learned yet land in a memberless "unknown" cluster. Caller
// holds w.mu.
func (w *warmer) rebuild() {
	unknown := int32(len(w.catID))
	cm := &model.ClusterMap{
		OfApp:   make([]int32, w.maxApp+1),
		Members: make([][]int32, unknown+1),
	}
	for i := range cm.OfApp {
		cm.OfApp[i] = unknown
	}
	for app, cat := range w.catOfApp {
		cm.OfApp[app] = cat
		cm.Members[cat] = append(cm.Members[cat], app)
	}
	for _, members := range cm.Members {
		sort.Slice(members, func(i, j int) bool {
			di, dj := w.downloads[members[i]], w.downloads[members[j]]
			if di != dj {
				return di > dj
			}
			return members[i] < members[j]
		})
	}
	w.cm = cm
	w.built = w.learns
}

// noteClient feeds the warmer after a detail page was served to a client.
func (s *Server) noteClient(r *http.Request, appID int32) {
	if s.warm == nil || appID < 0 {
		return
	}
	s.warm.note(apiwire.ClientKey(r), appID)
}

// note appends to the client's history, selects the likely-next detail
// pages, and enqueues the ones the cache lacks.
func (w *warmer) note(client string, appID int32) {
	w.mu.Lock()
	w.clients.Access(client)
	h := append(w.hist[client], appID)
	if len(h) > historyDepth {
		h = h[len(h)-historyDepth:]
	}
	w.hist[client] = h
	if w.cm == nil || w.learns-w.built >= rebuildEvery {
		if w.learns == 0 {
			w.mu.Unlock()
			return
		}
		w.rebuild()
	}
	cm := w.cm
	// CategoryTop indexes cm.OfApp by history entries; drop apps beyond
	// the map's coverage (learned tables can lag the serving state).
	known := make([]int32, 0, len(h))
	for _, a := range h {
		if int(a) < len(cm.OfApp) {
			known = append(known, a)
		}
	}
	targets := prefetch.NewCategoryTop(cm).Select(known, w.budget)
	keys := make([]string, 0, len(targets))
	for _, app := range targets {
		k := apiwire.AppPath(apiwire.Detail, app)
		if w.inflight[k] {
			continue
		}
		w.inflight[k] = true
		keys = append(keys, k)
	}
	w.mu.Unlock()

	for _, k := range keys {
		if w.s.hasFresh(reqKey{k, "gzip"}) {
			w.release(k)
			continue
		}
		select {
		case w.ch <- k:
		default:
			w.release(k) // queue full: warming is best-effort
		}
	}
}

func (w *warmer) release(key string) {
	w.mu.Lock()
	delete(w.inflight, key)
	w.mu.Unlock()
}

// worker drains the warm queue through the regular single-flight fetch
// path, marking fills so usefulness is measurable. Warm fetches ask for
// the gzip variant: nearly every real client (crawlers, browsers, the
// load generator's default) negotiates gzip, so that is the variant worth
// having resident — and on a non-varying origin it degrades to the shared
// identity entry anyway.
func (w *warmer) worker() {
	defer w.wg.Done()
	for {
		select {
		case <-w.quit:
			return
		case uri := <-w.ch:
			key := reqKey{uri, "gzip"}
			if !w.s.hasFresh(key) {
				out := w.s.getOrFetch(context.Background(), key, "")
				if out.kind == kindMiss {
					w.s.st.prefetchFills.Inc()
					w.s.markPrefetched(out.entry.key, out.entry.etag)
				}
			}
			w.release(uri)
		}
	}
}

// hasFresh reports whether the request resolves to a resident fresh entry.
func (s *Server) hasFresh(key reqKey) bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookupLocked(key)
	return e != nil && now.Before(e.expires)
}

// markPrefetched flags a warm-filled entry (still holding the same
// content) so the first real client hit can be counted as prefetch-useful.
func (s *Server) markPrefetched(key reqKey, etag string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil && e.etag == etag {
		e.prefetched = true
	}
}
