package storeserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
)

// commentedApps counts the apps idx holds a stream for.
func commentedApps(idx *comIndex) int {
	n := 0
	for id := int32(0); int(id)+1 < len(idx.off); id++ {
		if idx.stream(id) != nil {
			n++
		}
	}
	return n
}

// forgetIndex empties the index memo, so that the next SetComments builds.
func forgetIndex() {
	indexMemo.mu.Lock()
	indexMemo.pop, indexMemo.n, indexMemo.idx = weak.Pointer[comments.Comment]{}, 0, weak.Pointer[comIndex]{}
	indexMemo.mu.Unlock()
}

// countBuilds counts, until the test ends, the indexes the package builds.
func countBuilds(t *testing.T) *int {
	t.Helper()
	built := new(int)
	t.Cleanup(func() { buildIndex = newComIndex })
	buildIndex = func(cs []comments.Comment) *comIndex {
		*built++ // indexMemo.mu is held across a build
		return newComIndex(cs)
	}
	return built
}

// TestStoresShareOneCommentIndex: a population installed on every store of a
// rig is indexed once however many stores read it — a fleet of one, four
// shards, twenty unsharded stores installed from twenty goroutines — and
// every store serves, for each app it lists, the comment document a single
// node with an index of its own serves, ETag, identity and gzip bytes alike.
// What the four shards serve adds up to the single node's streams.
func TestStoresShareOneCommentIndex(t *testing.T) {
	const apps = 2000
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	forgetIndex()
	single := New(retentionMarket(t, apps), Config{PageSize: 100})
	single.SetComments(slices.Clone(cs))
	ref := single.snap.Load()

	shardsOf := func(shards int) []*Server {
		var ss []*Server
		for k := int32(0); k < int32(shards); k++ {
			k := k
			part := marketsim.NewPartitioner(func(id int32) bool { return id%int32(shards) == k })
			ss = append(ss, New(retentionMarket(t, apps), Config{PageSize: 100, Partition: part}))
		}
		return ss
	}
	unsharded := func(n int) []*Server {
		var ss []*Server
		for i := 0; i < n; i++ {
			ss = append(ss, New(retentionMarket(t, apps), Config{PageSize: 100}))
		}
		return ss
	}
	built := countBuilds(t)
	for _, rig := range []struct {
		name   string
		stores []*Server
	}{
		{"fleet of one", unsharded(1)},
		{"4 shards", shardsOf(4)},
		{"20 unsharded stores", unsharded(20)},
	} {
		forgetIndex()
		*built = 0
		var wg sync.WaitGroup
		for _, s := range rig.stores {
			wg.Add(1)
			go func(s *Server) {
				defer wg.Done()
				s.SetComments(cs)
			}(s)
		}
		wg.Wait()
		if *built != 1 {
			t.Fatalf("%s: %d indexes built for one population, want 1", rig.name, *built)
		}
		served := 0
		for k, s := range rig.stores {
			sn := s.snap.Load()
			if sn.comments != rig.stores[0].comments {
				t.Fatalf("%s: store %d reads an index of its own", rig.name, k)
			}
			for i := 0; i < sn.n; i++ {
				got, want := sn.commentsDoc(i), ref.commentsDoc(int(sn.ex.ID(i)))
				if got.etag != want.etag || !bytes.Equal(servedBody(sn, docComments, i), servedBody(ref, docComments, int(sn.ex.ID(i)))) ||
					!bytes.Equal(got.gzBody, want.gzBody) {
					t.Fatalf("%s: store %d app %d: comment document differs from the single node's", rig.name, k, sn.ex.ID(i))
				}
				if sn.comments.stream(sn.ex.ID(i)) != nil {
					served++
				}
			}
		}
		// Unsharded stores each serve every stream; shards partition them.
		want := commentedApps(ref.comments)
		if rig.stores[0].cfg.Partition == nil {
			want *= len(rig.stores)
		}
		if served != want || served == 0 {
			t.Fatalf("%s: %d streams served in all, want %d", rig.name, served, want)
		}
	}

	// An installed population is read-only; a caller that wants another
	// clones and edits it, and the clone gets an index of its own.
	edited := slices.Clone(cs)
	edited[0].Rating = edited[0].Rating%5 + 1
	*built = 0
	s := unsharded(1)[0]
	s.SetComments(edited)
	id := int32(edited[0].App)
	if *built != 1 || s.comments == ref.comments || s.comments.stream(id)[0].Rating == ref.comments.stream(id)[0].Rating {
		t.Fatalf("an edited clone of the population: %d indexes built, its own index %v", *built, s.comments != ref.comments)
	}
}

// installed generates a population, installs it on a store and drops it,
// returning the store and weak pointers to the population and its index.
func installed(t *testing.T, apps int) (*Server, weak.Pointer[comments.Comment], weak.Pointer[comIndex]) {
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(retentionMarket(t, apps), Config{PageSize: 100})
	s.SetComments(cs)
	return s, weak.Make(&cs[0]), weak.Make(s.comments)
}

// TestIndexMemoPinsNothing: the memo keeps alive neither a population its
// caller has dropped — a store serves from the index alone — nor an index
// no store reads, and the next install of a collected population's slot
// builds afresh.
func TestIndexMemoPinsNothing(t *testing.T) {
	const apps = 2000
	forgetIndex()
	s, pop, idx := installed(t, apps)
	runtime.GC()
	if pop.Value() != nil {
		t.Fatal("a population nothing but the memo refers to is still alive")
	}
	if idx.Value() == nil || idx.Value() != s.comments || commentedApps(s.comments) == 0 {
		t.Fatal("the store lost its index with the population")
	}
	runtime.KeepAlive(s)
	s = nil
	runtime.GC()
	if idx.Value() != nil {
		t.Fatal("an index no store reads is still alive")
	}
	built := countBuilds(t)
	s, _, _ = installed(t, apps)
	if *built != 1 || s.comments == nil {
		t.Fatalf("installing a population after the last was collected built %d indexes, want 1", *built)
	}
}

// TestMergeNeverWritesTheIndex: comments written to one store land in that
// store's copy-on-write table, in streams of their own, and never in the
// index it shares: a second store over the same population keeps serving
// the bytes it served, and the index is the one built.
func TestMergeNeverWritesTheIndex(t *testing.T) {
	const apps = 2000
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	written, reader := New(retentionMarket(t, apps), Config{PageSize: 100}), New(retentionMarket(t, apps), Config{PageSize: 100})
	written.SetComments(cs)
	reader.SetComments(cs)
	idx := written.comments
	if reader.comments != idx {
		t.Fatal("two stores of one population read two indexes")
	}
	all, off := slices.Clone(idx.all), slices.Clone(idx.off)
	// Apps with a stream, the first at the index's start and the last at its
	// end, where an append in place would land in a neighbour or past it.
	var ids []int32
	for id := int32(0); int(id)+1 < len(idx.off) && id < apps; id++ {
		if idx.stream(id) != nil && (len(ids) == 0 || id%97 == 0) {
			ids = append(ids, id)
		}
	}
	for id := int32(apps - 1); id >= 0; id-- {
		if idx.stream(id) != nil {
			ids = append(ids, id)
			break
		}
	}
	type served struct {
		etag string
		body []byte
	}
	before := make(map[int32]served, len(ids))
	for _, id := range ids {
		sn := reader.snap.Load()
		before[id] = served{sn.commentsDoc(int(id)).etag, servedBody(sn, docComments, int(id))}
	}
	h := written.Handler()
	for _, id := range ids {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/api/v1/apps/%d/comments", id), strings.NewReader(`{"user":9,"rating":4}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST comment on app %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	if err := written.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if err := reader.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if written.comments != idx || !slices.Equal(idx.all, all) || !slices.Equal(idx.off, off) {
		t.Fatal("a merged write changed the shared index")
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(idx.all)))
	hi := lo + uintptr(cap(idx.all))*unsafe.Sizeof(CommentJSON{})
	sn, rsn := written.snap.Load(), reader.snap.Load()
	for _, id := range ids {
		merged, ver := sn.comTab.row(int(id))
		if ver != 1 || len(merged) != len(idx.stream(id))+1 {
			t.Fatalf("app %d: write version %d, %d comments over a stream of %d", id, ver, len(merged), len(idx.stream(id)))
		}
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(merged))); p >= lo && p < hi {
			t.Fatalf("app %d: the merged stream lives in the index's array", id)
		}
		got, want := rsn.commentsDoc(int(id)), before[id]
		if got.etag != want.etag || !bytes.Equal(servedBody(rsn, docComments, int(id)), want.body) {
			t.Fatalf("app %d: a write to another store changed what this one serves", id)
		}
	}
}

// TestStoresOfOnePopulationHoldOneIndex bounds what twenty unsharded stores
// handed one population hold beyond the same stores without it: one index
// (its offsets and comments) and a small constant a store — the snapshot
// SetComments republishes — where each store used to hold its own grouped
// copy of the streams.
func TestStoresOfOnePopulationHoldOneIndex(t *testing.T) {
	const (
		apps   = 2000
		stores = 20
		// perStore is what a store may hold beyond its share of the index:
		// at this size each store's own grouped copy was about 66 KB.
		perStore = 8 << 10
	)
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(install bool) func() any {
		return func() any {
			ss := make([]*Server, stores)
			for i := range ss {
				ss[i] = New(retentionMarket(t, apps), Config{PageSize: 100})
				if install {
					ss[i].SetComments(cs)
				}
			}
			return ss
		}
	}
	forgetIndex()
	bare := heldBy(build(false))
	forgetIndex()
	held := heldBy(build(true))
	if raceEnabled {
		return // the race allocator's shadow memory swamps a byte bound
	}
	idx := newComIndex(cs)
	index := int64(cap(idx.off))*int64(unsafe.Sizeof(int32(0))) + int64(cap(idx.all))*int64(unsafe.Sizeof(CommentJSON{}))
	bound := index + stores*perStore
	t.Logf("%d stores: %d bytes bare, %d with %d comments installed (an index is %d): %d over, bound %d",
		stores, bare, held, len(cs), index, held-bare, bound)
	if held-bare > bound {
		t.Fatalf("%d stores of one population hold %d bytes beyond the same stores without it, want <= %d: one index and %d a store",
			stores, held-bare, bound, perStore)
	}
}
