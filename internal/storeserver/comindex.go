package storeserver

import (
	"math"
	"sync"
	"weak"

	"planetapps/internal/comments"
)

// comIndex is a comment population grouped by app: app id's stream is
// all[off[id]:off[id+1]], its comments in the population's order, and every
// stream has cap == len, so the only way to extend one is the copy
// mergeComments makes. It is immutable once built, and every store handed
// the same population reads one index (indexFor): a shard serves the
// streams of the apps it lists out of it and never reads the rest.
type comIndex struct {
	off []int32 // len = 1 + the largest commented app ID + 1
	all []CommentJSON
}

// stream returns app id's comments, nil for an app without any (and on a
// nil index, a store with no population installed).
func (x *comIndex) stream(id int32) []CommentJSON {
	if x == nil || id < 0 || int(id)+1 >= len(x.off) {
		return nil
	}
	lo, hi := x.off[id], x.off[id+1]
	if lo == hi {
		return nil
	}
	return x.all[lo:hi:hi]
}

// newComIndex groups cs by app with one counting sort: one pass counts each
// app's comments, the offsets are their running sum, a second pass drops
// each comment into place. Comments on a negative ID, which no store can
// serve, are left out.
func newComIndex(cs []comments.Comment) *comIndex {
	if len(cs) > math.MaxInt32 {
		panic("storeserver: a comment population of more than 2^31-1 comments")
	}
	span := 0 // commented IDs are below it
	for i := range cs {
		span = max(span, int(cs[i].App)+1)
	}
	// off[id+1] counts app id's comments, then off[id] is where the next of
	// them goes; once all are placed, off[id] is where app id's stream ends,
	// which is where the next app's starts.
	off := make([]int32, span+1)
	for i := range cs {
		if id := cs[i].App; id >= 0 {
			off[id+1]++
		}
	}
	for id := 1; id < len(off); id++ {
		off[id] += off[id-1]
	}
	all := make([]CommentJSON, off[span])
	for i := range cs {
		if c := &cs[i]; c.App >= 0 {
			all[off[c.App]] = CommentJSON{User: int32(c.User), Rating: c.Rating, UnixTime: c.Time.Unix()}
			off[c.App]++
		}
	}
	copy(off[1:], off[:span])
	off[0] = 0
	return &comIndex{off: off, all: all}
}

// buildIndex is newComIndex, a variable so that a test can count the
// indexes the stores of a process build.
var buildIndex = newComIndex

// indexMemo holds the index of the last population installed, keyed on the
// population slice itself: its first element's address and its length. It
// holds both weakly, so it keeps alive neither a population its caller has
// dropped nor an index no store reads; once either is collected, the next
// install builds afresh, and a collected population's address, reused by
// another, reads nil rather than matching. A process installs one
// population on N stores (a fleet's shards, the benchmark's sites), one
// after another, so one entry is enough; it has no size or switch.
var indexMemo struct {
	mu  sync.Mutex // held across a build: a same-population caller waits for it
	pop weak.Pointer[comments.Comment]
	n   int
	idx weak.Pointer[comIndex]
}

// indexFor returns cs's index, building it unless the memo holds it.
func indexFor(cs []comments.Comment) *comIndex {
	if len(cs) == 0 {
		return nil
	}
	indexMemo.mu.Lock()
	defer indexMemo.mu.Unlock()
	if indexMemo.pop.Value() == &cs[0] && indexMemo.n == len(cs) {
		if idx := indexMemo.idx.Value(); idx != nil {
			return idx
		}
	}
	idx := buildIndex(cs)
	indexMemo.pop, indexMemo.n, indexMemo.idx = weak.Make(&cs[0]), len(cs), weak.Make(idx)
	return idx
}
