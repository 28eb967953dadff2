package storeserver

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"planetapps/internal/apiwire"
	"planetapps/internal/catalog"
	"planetapps/internal/comments"
)

// wireRow is the reference the append encoder is held to: row i as the
// AppJSON struct encoding/json renders (what every document path built
// before it appended bytes).
func (sn *snapshot) wireRow(i int) AppJSON {
	a := sn.ex.App(i)
	return AppJSON{
		ID:        int32(a.ID),
		Name:      string(appendAppName(nil, sn.store, int32(a.ID))),
		Category:  sn.catNames[a.Category],
		Developer: sn.devNames[a.Dev],
		Paid:      a.Pricing == catalog.Paid,
		Price:     a.Price,
		HasAds:    a.HasAds,
		SizeMB:    a.SizeMB,
		Version:   a.Versions,
		Downloads: sn.ex.Downloads(i),
	}
}

func (sn *snapshot) wireRows(lo, hi int) []AppJSON {
	rows := make([]AppJSON, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, sn.wireRow(i))
	}
	return rows
}

// viaEncodingJSON is v as the reflective encoder writes it, trailing
// newline included.
func viaEncodingJSON(v any) []byte {
	var buf bytes.Buffer
	encodeJSON(&buf, v)
	return buf.Bytes()
}

// TestRowEncoderMatchesEncodingJSON holds every document the store renders
// from rows — each detail document, each fixed listing page, cursor slices
// at every alignment and limit shape, each comment stream — to the bytes
// encoding/json produces for the wire structs, on day 0 and after rolls
// that moved downloads, versions, the catalog size and (through accepted
// writes) the comment table.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	s := etagTestServer(t, Config{PageSize: 30})
	cs, err := comments.Generate(s.market.Catalog(), comments.DefaultGenConfig(300), 9)
	if err != nil {
		t.Fatal(err)
	}
	s.SetComments(cs)
	h := s.Handler()

	check := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	var free, paid, streams int
	sweep := func() {
		sn := s.snap.Load()
		day := "day " + sn.dayStr + " "
		for i := 0; i < sn.n; i++ {
			row := sn.wireRow(i)
			if row.Paid {
				paid++
			} else {
				free++
			}
			want, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			check(day+"row "+strconv.Itoa(i), sn.appendRow(nil, i), want)
			check(day+"detail "+strconv.Itoa(i), sn.detailDoc(i).body, viaEncodingJSON(row))

			stream, ver := sn.comTab.row(i)
			if ver == 0 {
				stream = sn.comments[catalog.AppID(sn.ex.ID(i))]
			}
			if stream == nil {
				stream = []CommentJSON{}
			} else {
				streams++
			}
			check(day+"comments "+strconv.Itoa(i), sn.commentsDoc(i).body, viaEncodingJSON(stream))
		}
		// Cursor slices: every seventh anchor with the default size (the
		// last one without next_cursor), short limits, and an anchor parked
		// past the end (empty terminal slice).
		for lo := 0; lo <= sn.n; lo += 7 {
			for _, limit := range []int{0, 1, 11} {
				path := "/api/v1/apps?cursor=" + apiwire.EncodeCursor(lo)
				size := sn.pageSize
				if limit > 0 {
					path += "&limit=" + strconv.Itoa(limit)
					size = limit
				}
				hi := min(lo+size, sn.n)
				want := CursorPageJSON{Apps: sn.wireRows(lo, hi), Total: sn.n}
				if hi < sn.n {
					want.NextCursor = apiwire.EncodeCursor(hi)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s%s: status %d", day, path, rec.Code)
				}
				check(day+path, rec.Body.Bytes(), viaEncodingJSON(want))
			}
		}
	}

	sweep()
	ts := httptest.NewServer(h)
	defer ts.Close()
	for round := 0; round < 3; round++ {
		for app := 0; app < 5; app++ {
			resp, body := postJSON(t, ts.URL+"/api/v1/apps/"+strconv.Itoa(app*31)+"/comments",
				`{"user":`+strconv.Itoa(9000+round)+`,"rating":`+strconv.Itoa(1+round)+`}`, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("comment write: %d %s", resp.StatusCode, body)
			}
		}
		if err := s.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		sweep()
	}
	if free == 0 || paid == 0 || streams == 0 {
		t.Fatalf("sweep saw %d free rows, %d paid rows, %d non-empty comment streams: need all three", free, paid, streams)
	}
}

// TestRowEncoderDoesNotAllocate: a row appended into a buffer with room
// costs no heap allocation — the name is rendered on the stack.
func TestRowEncoderDoesNotAllocate(t *testing.T) {
	sn := etagTestServer(t, Config{}).snap.Load()
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() { dst = sn.appendRow(dst[:0], 7) }); n != 0 {
		t.Fatalf("appendRow allocates %.1f/op", n)
	}
}

// marshalOrPanic runs an append encoder and reports whether it panicked.
func marshalOrPanic(f func() []byte) (out []byte, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "slideme-app-00042", "Games & Fun", "<script>", "a>b", `say "hi"`, `back\slash`,
		"tab\there", "nul\x00byte", "\x1f", "\x7f", "caf\u00e9", "\u2028line\u2029para", "\xff\xfe invalid",
		"\xed\xa0\x80 surrogate", "emoji \U0001F600", "trailing \xc3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	})
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.99, 3.5, 1.0 / 3, 100, 1e6,
		1e-6, 0.9999999e-6, 1e-7, 1.5e-9, 1e-10, -1e-7,
		1e20, 9.999999999999999e20, 1e21, 1.5e21, 1e100, -1e21,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		got, panicked := marshalOrPanic(func() []byte { return appendJSONFloat([]byte("x"), v) })
		if err != nil {
			// NaN and the infinities: encoding/json refuses, so must we.
			if !panicked {
				t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal refuses: %v", v, got, err)
			}
			return
		}
		if panicked || string(got) != "x"+string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s (panicked %v), json.Marshal = %s", v, got, panicked, want)
		}
	})
}

func FuzzAppendRow(f *testing.F) {
	f.Add(int32(42), "slideme", "Games", "dev-00017", true, 0.99, false, 3.5, 2, int64(123456))
	f.Add(int32(0), "", "", "", false, 0.0, true, 0.0, 0, int64(0))
	f.Add(int32(-1), "1mobile", "Tools & <Utilities>", "d\"ev\\", false, 1e-7, true, 1e21, -3, int64(math.MinInt64))
	f.Add(int32(math.MaxInt32), "st\u00f6re\u2028", "\x00", "\xff", true, math.Inf(1), true, math.NaN(), math.MaxInt32, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, id int32, store, cat, dev string, paid bool, price float64, ads bool, size float64, version int, downloads int64) {
		row := AppJSON{
			ID: id, Name: string(appendAppName(nil, store, id)), Category: cat, Developer: dev,
			Paid: paid, Price: price, HasAds: ads, SizeMB: size, Version: version, Downloads: downloads,
		}
		want, err := json.Marshal(row)
		got, panicked := marshalOrPanic(func() []byte { return appendAppJSON(nil, &row) })
		if err != nil {
			if !panicked {
				t.Fatalf("appendAppJSON(%+v) = %s, json.Marshal refuses: %v", row, got, err)
			}
			return
		}
		if panicked || !bytes.Equal(got, want) {
			t.Fatalf("appendAppJSON(%+v) = %s (panicked %v), json.Marshal = %s", row, got, panicked, want)
		}
		// The same integers as a comment stream, at lengths 0 (never null),
		// 1 and 2.
		c := CommentJSON{User: id, Rating: int8(version), UnixTime: downloads}
		for _, cs := range [][]CommentJSON{nil, {c}, {c, {}}} {
			want, _ := json.Marshal(append([]CommentJSON{}, cs...))
			if got := appendComments(nil, cs); !bytes.Equal(got, want) {
				t.Fatalf("appendComments(%+v) = %s, json.Marshal = %s", cs, got, want)
			}
		}
	})
}
