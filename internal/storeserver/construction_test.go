package storeserver

import (
	"slices"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
)

// groupedByAppend is SetComments' grouping as it was: every stream grown by
// append, comments on a negative ID dropped. The index is held to it.
func groupedByAppend(cs []comments.Comment) map[catalog.AppID][]CommentJSON {
	grouped := map[catalog.AppID][]CommentJSON{}
	for _, c := range cs {
		if c.App < 0 {
			continue
		}
		grouped[c.App] = append(grouped[c.App], CommentJSON{User: int32(c.User), Rating: c.Rating, UnixTime: c.Time.Unix()})
	}
	return grouped
}

// TestBuiltAtFinalSize: the comment index counts before it fills. Every
// stream has exactly the room its comments take (so the only way to extend
// one is the copy mergeComments makes), and the index holds, comment for
// comment, the streams that growing one per app by append held — including
// those of apps past the catalog's end, which a shard whose partition owns
// them serves once they arrive, and dropping IDs no store can serve.
func TestBuiltAtFinalSize(t *testing.T) {
	const (
		apps = 2000
		late = 6 // apps past the catalog's end with comments
	)
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Comments on apps past the catalog's end and on an ID that is no app's.
	when := time.Unix(1356998400, 0)
	for id := catalog.AppID(apps); id < apps+late; id++ {
		cs = append(cs, comments.Comment{User: 7, App: id, Rating: 3, Time: when}, comments.Comment{User: 8, App: id, Rating: 4, Time: when})
	}
	cs = append(cs, comments.Comment{User: 9, App: -1, Rating: 1, Time: when})

	want := groupedByAppend(cs)
	s := New(retentionMarket(t, apps), Config{PageSize: 100})
	s.SetComments(cs)
	idx := s.comments
	if idx.stream(-1) != nil || idx.stream(apps+late) != nil {
		t.Fatal("the index serves a stream for an ID nobody commented on")
	}
	streams, kept := 0, 0
	for id := int32(0); int(id)+1 < len(idx.off); id++ {
		stream := idx.stream(id)
		if !slices.Equal(stream, want[catalog.AppID(id)]) {
			t.Fatalf("app %d: stream of %d comments, want %d", id, len(stream), len(want[catalog.AppID(id)]))
		}
		if cap(stream) != len(stream) {
			t.Fatalf("app %d: %d comments in room for %d", id, len(stream), cap(stream))
		}
		if stream != nil {
			streams++
			kept += len(stream)
		}
	}
	if streams != len(want) || kept != len(cs)-1 || cap(idx.all) != kept {
		t.Fatalf("the index holds %d streams of %d comments in room for %d, want %d streams of %d", streams, kept, cap(idx.all), len(want), len(cs)-1)
	}
}
