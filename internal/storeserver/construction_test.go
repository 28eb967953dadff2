package storeserver

import (
	"slices"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
)

// groupedByAppend is SetComments' grouping as it was: every comment asked of
// the partition, every stream grown by append. groupComments is held to it.
func groupedByAppend(cs []comments.Comment, part *marketsim.Partitioner) map[catalog.AppID][]CommentJSON {
	grouped := map[catalog.AppID][]CommentJSON{}
	for _, c := range cs {
		if c.App < 0 || part != nil && !part.Owns(int32(c.App)) {
			continue
		}
		grouped[c.App] = append(grouped[c.App], CommentJSON{User: int32(c.User), Rating: c.Rating, UnixTime: c.Time.Unix()})
	}
	return grouped
}

// TestBuiltAtFinalSize: SetComments counts before it fills. Every stream a
// store keeps has exactly the room its comments take (so the only way to
// extend one is the copy mergeComments makes), and a shard that reads
// ownership off its export's ID list keeps the streams, comment for comment,
// that asking its ring about every comment kept — including those of apps
// its partition owns but its export does not list yet, which only the ring
// can answer for, and dropping IDs no store can serve.
func TestBuiltAtFinalSize(t *testing.T) {
	const (
		apps   = 2000
		shards = 3
	)
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/5), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Comments on apps past the catalog's end (owned by whoever the ring
	// says) and on an ID that is no app's.
	late := time.Unix(1356998400, 0)
	for id := catalog.AppID(apps); id < apps+2*shards; id++ {
		cs = append(cs, comments.Comment{User: 7, App: id, Rating: 3, Time: late}, comments.Comment{User: 8, App: id, Rating: 4, Time: late})
	}
	cs = append(cs, comments.Comment{User: 9, App: -1, Rating: 1, Time: late})

	parts := []*marketsim.Partitioner{nil}
	for k := int32(0); k < shards; k++ {
		k := k
		parts = append(parts, marketsim.NewPartitioner(func(id int32) bool { return id%shards == k }))
	}
	for k, part := range parts {
		s := New(retentionMarket(t, apps), Config{PageSize: 100, Partition: part})
		s.SetComments(cs)
		got, want := s.comments, groupedByAppend(cs, part)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("store %d keeps %d streams, want %d", k, len(got), len(want))
		}
		lateKept := 0
		for id, stream := range got {
			if !slices.Equal(stream, want[id]) {
				t.Fatalf("store %d, app %d: stream of %d comments, want %d", k, id, len(stream), len(want[id]))
			}
			if cap(stream) != len(stream) {
				t.Fatalf("store %d, app %d: %d comments in room for %d", k, id, len(stream), cap(stream))
			}
			if id >= apps {
				lateKept++
			}
		}
		wantLate := 2 * shards // the single node keeps them all, a shard its third
		if part != nil {
			wantLate = 2
		}
		if lateKept != wantLate {
			t.Fatalf("store %d keeps the streams of %d apps it does not list yet, want %d", k, lateKept, wantLate)
		}
	}
}
