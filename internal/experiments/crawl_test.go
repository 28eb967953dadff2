package experiments

import (
	"bytes"
	"strings"
	"testing"

	"planetapps/internal/db"
	"planetapps/internal/snapshot"
)

// load reads JSONL written the way db.WriteTo writes it.
func load(t *testing.T, jsonl string) (*Dataset, error) {
	t.Helper()
	d := db.New()
	if _, err := d.ReadFrom(strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	return Load(d)
}

// TestLoadRefusesWhatASeriesCannotHold: each refusal names the app and the
// day.
func TestLoadRefusesWhatASeriesCannotHold(t *testing.T) {
	const store = `{"store":"s"}` + "\n"
	for _, tc := range []struct{ name, jsonl, want string }{
		{"app missing on a day after it was first seen",
			`{"app":{"id":1,"category":"c","daily":[{"day":0},{"day":1},{"day":2}]}}
{"app":{"id":2,"category":"c","daily":[{"day":0},{"day":2}]}}`,
			"app 2 is missing on day 1, after it was first seen on day 0"},
		{"app gone before the last day",
			`{"app":{"id":1,"category":"c","daily":[{"day":0},{"day":1}]}}
{"app":{"id":2,"category":"c","daily":[{"day":0}]}}`,
			"app 2 is missing on day 1, after it was first seen on day 0"},
		{"days out of order",
			`{"app":{"id":1,"category":"c","daily":[{"day":1},{"day":0}]}}`,
			"app 1: day 0 observed after day 1"},
		{"day repeated",
			`{"app":{"id":3,"category":"c","daily":[{"day":0},{"day":0}]}}`,
			"app 3: day 0 observed after day 0"},
		{"comment on an app the crawl never listed",
			`{"app":{"id":1,"category":"c","daily":[{"day":0},{"day":1}]}}
{"comment":{"app":9,"user":4,"rating":5,"t":86400}}`,
			"user 4 commented on app 9 on 1970-01-02, an app the crawl never listed"},
	} {
		_, err := load(t, store+tc.jsonl+"\n")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := load(t, `{"app":{"id":1,"daily":[{"day":0}]}}`+"\n"); err == nil {
		t.Error("a database that names no store was accepted")
	}
}

// TestLoadOrdersLikeASeries: an app first seen later takes a later place,
// whatever its ID, and comments are ordered by time, then user.
func TestLoadOrdersLikeASeries(t *testing.T) {
	ds, err := load(t, `{"store":"s"}
{"app":{"id":3,"category":"b","developer":"x","daily":[{"day":0,"downloads":30},{"day":1,"downloads":31,"version":2}]}}
{"app":{"id":5,"category":"a","developer":"y","paid":true,"price":1.5,"daily":[{"day":1,"downloads":50,"price":1.5}]}}
{"app":{"id":7,"category":"b","developer":"x","daily":[{"day":0,"downloads":70},{"day":1,"downloads":71}]}}
{"comment":{"app":5,"user":2,"rating":4,"t":20}}
{"comment":{"app":7,"user":9,"rating":3,"t":10}}
{"comment":{"app":3,"user":1,"rating":5,"t":20}}
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Series.First().CumulativeDownloads; len(got) != 2 || got[0] != 30 || got[1] != 70 {
		t.Errorf("day 0 downloads %v, want [30 70]", got)
	}
	if got := ds.Series.Last().CumulativeDownloads; len(got) != 3 || got[2] != 50 {
		t.Errorf("day 1 downloads %v, want [31 71 50]", got)
	}
	if ds.Series.Store != "s" || ds.Catalog.NumApps() != 3 || ds.Catalog.Apps[2].Price != 1.5 {
		t.Errorf("catalog view %+v", ds.Catalog.Apps)
	}
	if sizes := ds.Catalog.CategorySizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("category sizes %v, want [1 2]", sizes)
	}
	var order []int32
	for _, c := range ds.Comments {
		order = append(order, int32(c.User))
	}
	if len(order) != 3 || order[0] != 9 || order[1] != 1 || order[2] != 2 {
		t.Errorf("comment users in order %v, want [9 1 2]", order)
	}
}

// FuzzLoad sends arbitrary JSONL through db.ReadFrom and Load: neither may
// panic, and every dataset Load accepts is a series Series.Append accepts
// day by day, over a catalog that holds every app and commented app.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"store":"s"}
{"app":{"id":3,"category":"b","daily":[{"day":0},{"day":1}]}}
{"app":{"id":5,"category":"a","daily":[{"day":1}]}}
{"comment":{"app":5,"user":2,"rating":4,"t":20}}
`))
	f.Add([]byte(`{"store":"s"}` + "\n" + `{"app":{"id":1,"daily":[{"day":-3}]}}` + "\n"))
	f.Add([]byte("{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := db.New()
		if _, err := d.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		ds, err := Load(d)
		if err != nil {
			return
		}
		var s snapshot.Series
		for _, day := range ds.Series.Days {
			if err := s.Append(day); err != nil {
				t.Fatalf("Load accepted a series Append refuses: %v", err)
			}
		}
		if n := len(ds.Series.Last().CumulativeDownloads); n != ds.Catalog.NumApps() {
			t.Fatalf("the last day holds %d apps, the catalog %d", n, ds.Catalog.NumApps())
		}
		for _, c := range ds.Comments {
			if int(c.App) >= ds.Catalog.NumApps() {
				t.Fatalf("a comment on app %d of %d", c.App, ds.Catalog.NumApps())
			}
		}
	})
}
