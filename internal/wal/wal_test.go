package wal

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"planetapps/internal/metrics"
)

func TestAppendAckAndRotate(t *testing.T) {
	l := New(Config{MaxBatch: 2, FlushInterval: time.Hour}, nil)
	var wg sync.WaitGroup
	acks := make([]Ack, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := l.Append(Rec{Kind: Download, App: 7, User: int32(i)}, "")
			if err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			acks[i] = a
		}(i)
	}
	wg.Wait()
	if acks[0] != (Ack{}) || acks[1] != (Ack{}) {
		t.Fatalf("want two plain acks, got %+v", acks)
	}
	d := l.Rotate()
	if d.Records != 2 || d.Downloads[7] != 2 {
		t.Fatalf("delta: %+v", d)
	}
	if st := l.Stats(); st.Accepted != 2 || st.Merged != 2 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFlushTimerSealsUnderfilledBatch(t *testing.T) {
	l := New(Config{MaxBatch: 1000, FlushInterval: 2 * time.Millisecond}, nil)
	start := time.Now()
	if _, err := l.Append(Rec{Kind: Download, App: 1, User: 2}, ""); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("single append took %v; flush timer not sealing", elapsed)
	}
}

func TestNaturalKeyDuplicate(t *testing.T) {
	l := New(Config{MaxBatch: 1}, nil)
	if _, err := l.Append(Rec{Kind: Rate, App: 3, User: 9, Rating: 5}, ""); err != nil {
		t.Fatal(err)
	}
	ack, err := l.Append(Rec{Kind: Rate, App: 3, User: 9, Rating: 1}, "")
	if err != nil || !ack.Duplicate {
		t.Fatalf("want duplicate ack, got %+v err %v", ack, err)
	}
	// A different kind by the same (user, app) is not a duplicate.
	ack, err = l.Append(Rec{Kind: Comment, App: 3, User: 9, Rating: 4}, "")
	if err != nil || ack.Duplicate {
		t.Fatalf("comment after rate misclassified: %+v err %v", ack, err)
	}
	d := l.Rotate()
	if len(d.Comments[3]) != 2 {
		t.Fatalf("comments: %+v", d.Comments)
	}
	if l.Stats().Duplicates != 1 {
		t.Fatalf("stats: %+v", l.Stats())
	}
}

func TestIdempotencyKeyReplay(t *testing.T) {
	l := New(Config{MaxBatch: 1}, nil)
	if _, err := l.Append(Rec{Kind: Download, App: 5, User: 6}, "k1"); err != nil {
		t.Fatal(err)
	}
	a2, err := l.Append(Rec{Kind: Download, App: 5, User: 6}, "k1")
	if err != nil || !a2.Deduped || a2.Duplicate {
		t.Fatalf("replay ack %+v err %v", a2, err)
	}
	// The replay did not log a second record.
	if d := l.Rotate(); d.Records != 1 {
		t.Fatalf("delta: %+v", d)
	}
	// The key survives one rotation (retry straddling a day-roll)...
	a3, err := l.Append(Rec{Kind: Download, App: 5, User: 6}, "k1")
	if err != nil || !a3.Deduped {
		t.Fatalf("post-roll replay: %+v err %v", a3, err)
	}
	// ...but two rotations age it out; the natural key still rejects.
	l.Rotate()
	l.Rotate()
	a4, err := l.Append(Rec{Kind: Download, App: 5, User: 6}, "k1")
	if err != nil || a4.Deduped || !a4.Duplicate {
		t.Fatalf("aged key: %+v err %v", a4, err)
	}
}

func TestDuplicateReplayKeepsVerdict(t *testing.T) {
	l := New(Config{MaxBatch: 1}, nil)
	if _, err := l.Append(Rec{Kind: Download, App: 1, User: 1}, "ka"); err != nil {
		t.Fatal(err)
	}
	if a, _ := l.Append(Rec{Kind: Download, App: 1, User: 1}, "kb"); !a.Duplicate {
		t.Fatalf("want duplicate, got %+v", a)
	}
	// Retrying the rejected submission with its key repeats the 409 verdict.
	a, err := l.Append(Rec{Kind: Download, App: 1, User: 1}, "kb")
	if err != nil || !a.Duplicate || !a.Deduped {
		t.Fatalf("replayed rejection: %+v err %v", a, err)
	}
	// The key names the rejected write, not whatever comes next under it.
	if _, err := l.Append(Rec{Kind: Download, App: 2, User: 1}, "kb"); !errors.Is(err, ErrKeyReused) {
		t.Fatalf("reused rejected key: err %v, want ErrKeyReused", err)
	}
}

// TestIdempotencyKeyReuse sends one key with a second write: a replay of
// the first write is deduped, any other write under the key is refused
// and never acked, and the delta holds exactly the writes that were acked,
// whichever app the second write names.
func TestIdempotencyKeyReuse(t *testing.T) {
	first := Rec{Kind: Download, App: 1, User: 7}
	for _, tc := range []struct {
		name      string
		second    Rec
		rotations int // day-rolls between the two writes
		wantErr   error
		logged    bool // the second write is in a delta
	}{
		{"same write", first, 0, nil, false},
		{"same write after a roll", first, 1, nil, false},
		{"app 5", Rec{Kind: Download, App: 5, User: 7}, 0, ErrKeyReused, false},
		{"app 2", Rec{Kind: Download, App: 2, User: 7}, 0, ErrKeyReused, false},
		{"another kind", Rec{Kind: Rate, App: 1, User: 7, Rating: 4}, 0, ErrKeyReused, false},
		{"another user", Rec{Kind: Download, App: 1, User: 8}, 0, ErrKeyReused, false},
		{"app 5 after a roll", Rec{Kind: Download, App: 5, User: 7}, 1, ErrKeyReused, false},
		{"app 5 after the key aged out", Rec{Kind: Download, App: 5, User: 7}, 2, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := New(Config{MaxBatch: 1}, nil)
			if _, err := l.Append(first, "K"); err != nil {
				t.Fatal(err)
			}
			var deltas []*Delta
			for i := 0; i < tc.rotations; i++ {
				deltas = append(deltas, l.Rotate())
			}
			ack, err := l.Append(tc.second, "K")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("second write: ack %+v err %v, want err %v", ack, err, tc.wantErr)
			}
			if err == nil && ack.Deduped == tc.logged {
				t.Fatalf("second write: ack %+v, want deduped %v", ack, !tc.logged)
			}
			last := l.Rotate()
			records := last.Records
			for _, d := range deltas {
				records += d.Records
			}
			want := 1
			if tc.logged {
				want = 2
			}
			if records != want {
				t.Fatalf("deltas hold %d records, want %d", records, want)
			}
			if tc.logged && last.Downloads[tc.second.App] != 1 {
				t.Fatalf("acked write to app %d missing from the delta: %+v", tc.second.App, last)
			}
			if st := l.Stats(); st.Accepted != int64(want) || st.Merged != int64(want) {
				t.Fatalf("stats %+v, want %d accepted and merged", st, want)
			}
		})
	}
}

func TestBackpressure(t *testing.T) {
	l := New(Config{MaxBatch: 1, MaxPending: 2}, nil)
	for i := 0; i < 2; i++ {
		if _, err := l.Append(Rec{Kind: Download, App: 1, User: int32(i)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	_, err := l.Append(Rec{Kind: Download, App: 1, User: 99}, "")
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	// Rotation drains the buffer and re-opens the gate.
	l.Rotate()
	if _, err := l.Append(Rec{Kind: Download, App: 1, User: 99}, ""); err != nil {
		t.Fatalf("post-rotate append: %v", err)
	}
	if l.Stats().Backpressure != 1 {
		t.Fatalf("stats: %+v", l.Stats())
	}
}

// TestRotateDeterministicUnderConcurrency drives the same record set
// through 1 and 8 goroutines and requires identical rotated deltas — the
// property the snapshot-determinism acceptance criterion rests on.
func TestRotateDeterministicUnderConcurrency(t *testing.T) {
	recs := make([]Rec, 0, 600)
	for u := int32(0); u < 200; u++ {
		app := u % 37
		recs = append(recs,
			Rec{Kind: Download, App: app, User: u},
			Rec{Kind: Rate, App: app, User: u, Rating: int8(1 + u%5)},
			Rec{Kind: Comment, App: app, User: u, Rating: int8(u % 6)},
		)
	}
	run := func(workers int) *Delta {
		l := New(Config{MaxBatch: 8, FlushInterval: 100 * time.Microsecond}, nil)
		ch := make(chan Rec)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range ch {
					if _, err := l.Append(r, ""); err != nil {
						t.Errorf("append: %v", err)
					}
				}
			}()
		}
		for _, r := range recs {
			ch <- r
		}
		close(ch)
		wg.Wait()
		return l.Rotate()
	}
	d1, d8 := run(1), run(8)
	if !reflect.DeepEqual(d1.Downloads, d8.Downloads) {
		t.Fatal("download deltas differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(d1.Comments, d8.Comments) {
		t.Fatal("comment deltas differ between 1 and 8 workers")
	}
	if d1.Records != d8.Records {
		t.Fatalf("records: %d vs %d", d1.Records, d8.Records)
	}
}

func TestAppsSortedUnion(t *testing.T) {
	d := &Delta{
		Downloads: map[int32]int64{9: 1, 2: 3},
		Comments:  map[int32][]Rec{5: nil, 2: nil},
	}
	got := d.Apps()
	want := []int32{2, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apps() = %v, want %v", got, want)
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Config{MaxBatch: 1}, reg)
	if _, err := l.Append(Rec{Kind: Download, App: 1, User: 1}, ""); err != nil {
		t.Fatal(err)
	}
	l.Rotate()
	if got := reg.Counter("wal_accepted_total").Value(); got != 1 {
		t.Fatalf("wal_accepted_total = %d", got)
	}
	if got := reg.Counter("wal_merged_total").Value(); got != 1 {
		t.Fatalf("wal_merged_total = %d", got)
	}
	if got := reg.Gauge("wal_pending_records").Value(); got != 0 {
		t.Fatalf("wal_pending_records = %d", got)
	}
	if got := reg.Histogram("wal_batch_records").Count(); got != 1 {
		t.Fatalf("wal_batch_records count = %d", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Download: "download", Rate: "rate", Comment: "comment", Kind(9): "unknown"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func ExampleLog_Rotate() {
	l := New(Config{MaxBatch: 1}, nil)
	l.Append(Rec{Kind: Download, App: 4, User: 10}, "") //nolint:errcheck
	l.Append(Rec{Kind: Rate, App: 4, User: 10, Rating: 5}, "")
	d := l.Rotate()
	fmt.Println(d.Records, d.Downloads[4], len(d.Comments[4]))
	// Output: 2 1 1
}
