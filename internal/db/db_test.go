package db

import (
	"bytes"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

func sampleApp(id int32) (AppRecord, DailyStat) {
	return AppRecord{
		ID: id, Name: "app", Category: "fun/games", Developer: "dev-0001",
		Paid: id%2 == 0, Price: 1.99, HasAds: true,
	}, DailyStat{Day: 0, Downloads: 100, Version: 1, Price: 1.99}
}

func TestUpsertAndGet(t *testing.T) {
	d := New()
	rec, stat := sampleApp(1)
	d.UpsertApp(rec, stat)
	got, ok := d.App(1)
	if !ok {
		t.Fatal("app missing")
	}
	if got.Category != "fun/games" || len(got.Daily) != 1 {
		t.Fatalf("record = %+v", got)
	}
	// Re-crawl same day replaces the stat.
	d.UpsertApp(rec, DailyStat{Day: 0, Downloads: 150, Version: 1, Price: 1.99})
	got, _ = d.App(1)
	if len(got.Daily) != 1 || got.Daily[0].Downloads != 150 {
		t.Fatalf("same-day upsert wrong: %+v", got.Daily)
	}
	// Next day appends.
	d.UpsertApp(rec, DailyStat{Day: 1, Downloads: 200, Version: 2, Price: 2.49})
	got, _ = d.App(1)
	if len(got.Daily) != 2 || got.Daily[1].Version != 2 {
		t.Fatalf("next-day upsert wrong: %+v", got.Daily)
	}
}

func TestAppCopyIsolation(t *testing.T) {
	d := New()
	rec, stat := sampleApp(1)
	d.UpsertApp(rec, stat)
	got, _ := d.App(1)
	got.Daily[0].Downloads = 999999
	again, _ := d.App(1)
	if again.Daily[0].Downloads == 999999 {
		t.Fatal("App returned shared storage")
	}
}

// TestCommentsDedup: a served stream's records are stored once each,
// identical ones included, and a re-crawl adds only what is new in it.
func TestCommentsDedup(t *testing.T) {
	d := New()
	c := CommentRecord{App: 1, User: 2, Rating: 5, UnixTime: 1000}
	if n := d.AddComments([]CommentRecord{c}); n != 1 {
		t.Fatalf("first insert stored %d records", n)
	}
	if n := d.AddComments([]CommentRecord{c}); n != 0 {
		t.Fatalf("re-crawl of the same stream stored %d records", n)
	}
	// The next day's stream: the same record, a rating and a comment the
	// user posted that day, identical as served, and another user's.
	later := CommentRecord{App: 1, User: 2, Rating: 4, UnixTime: 86400}
	other := CommentRecord{App: 1, User: 3, Rating: 4, UnixTime: 86400}
	next := []CommentRecord{c, later, later, other}
	if n := d.AddComments(next); n != 3 {
		t.Fatalf("next day's stream stored %d new records, want 3", n)
	}
	if n := d.AddComments(next); n != 0 {
		t.Fatalf("re-crawl of the next day's stream stored %d records", n)
	}
	want := []CommentRecord{c, later, later, other}
	if got := d.Comments(); !slices.Equal(got, want) {
		t.Fatalf("stored %v, want %v", got, want)
	}

	// A database read into itself adds nothing; read into an empty one it is
	// the same multiset.
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	if _, err := d.ReadFrom(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if d.NumComments() != len(want) {
		t.Fatalf("reading a database into itself left %d comments, want %d", d.NumComments(), len(want))
	}
	d2 := New()
	if _, err := d2.ReadFrom(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if got := d2.Comments(); !slices.Equal(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	d := New()
	for i := int32(0); i < 10; i++ {
		rec, stat := sampleApp(i)
		d.UpsertApp(rec, stat)
		d.UpsertApp(rec, DailyStat{Day: 1, Downloads: int64(100 + i)})
	}
	d.AddComments([]CommentRecord{{App: 1, User: 7, Rating: 4, UnixTime: 99}})
	d.SetStore("slideme")
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("wrote %d lines, want 12", n)
	}
	d2 := New()
	if _, err := d2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.NumApps() != 10 || d2.NumComments() != 1 || d2.Store() != "slideme" {
		t.Fatalf("loaded %d apps, %d comments", d2.NumApps(), d2.NumComments())
	}
	got, _ := d2.App(3)
	if len(got.Daily) != 2 || got.Daily[1].Downloads != 103 {
		t.Fatalf("loaded record wrong: %+v", got)
	}
}

func TestReadFromBadLine(t *testing.T) {
	d := New()
	if _, err := d.ReadFrom(bytes.NewBufferString("{not json\n")); err == nil {
		t.Fatal("bad JSONL accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.jsonl")
	d := New()
	rec, stat := sampleApp(5)
	d.UpsertApp(rec, stat)
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumApps() != 1 {
		t.Fatalf("loaded %d apps", d2.NumApps())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestConcurrentWriters(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int32(w*1000 + i)
				rec, stat := sampleApp(id)
				d.UpsertApp(rec, stat)
				d.AddComments([]CommentRecord{{App: id, User: int32(w), UnixTime: int64(i), Rating: 3}})
			}
		}(w)
	}
	wg.Wait()
	if d.NumApps() != 1600 || d.NumComments() != 1600 {
		t.Fatalf("apps=%d comments=%d", d.NumApps(), d.NumComments())
	}
}

func TestAppsSorted(t *testing.T) {
	d := New()
	for _, id := range []int32{5, 1, 3} {
		rec, stat := sampleApp(id)
		d.UpsertApp(rec, stat)
	}
	apps := d.Apps()
	if apps[0].ID != 1 || apps[1].ID != 3 || apps[2].ID != 5 {
		t.Fatalf("apps not sorted: %v %v %v", apps[0].ID, apps[1].ID, apps[2].ID)
	}
}

func TestAPKTracking(t *testing.T) {
	d := New()
	rec, stat := sampleApp(1)
	d.UpsertApp(rec, stat)
	if d.HasAPK(1, 1) {
		t.Fatal("unfetched version reported present")
	}
	if !d.RecordAPK(1, 1, 5000) {
		t.Fatal("first record rejected")
	}
	if d.RecordAPK(1, 1, 5000) {
		t.Fatal("duplicate version recorded")
	}
	if !d.HasAPK(1, 1) {
		t.Fatal("fetched version missing")
	}
	if !d.RecordAPK(1, 2, 6000) {
		t.Fatal("new version rejected")
	}
	if d.RecordAPK(99, 1, 100) {
		t.Fatal("unknown app accepted")
	}
	var pkgs int
	var bytes int64
	for _, rec := range d.Apps() {
		pkgs += len(rec.APKVersions)
		bytes += rec.APKBytes
	}
	if pkgs != 2 || bytes != 11000 {
		t.Fatalf("totals = %d pkgs, %d bytes", pkgs, bytes)
	}
}

func TestAPKPersistence(t *testing.T) {
	d := New()
	rec, stat := sampleApp(3)
	d.UpsertApp(rec, stat)
	d.RecordAPK(3, 1, 1234)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if _, err := d2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !d2.HasAPK(3, 1) {
		t.Fatal("APK record lost in round trip")
	}
	got, _ := d2.App(3)
	if got.APKBytes != 1234 {
		t.Fatalf("APKBytes = %d", got.APKBytes)
	}
}
