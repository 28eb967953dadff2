package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"planetapps/internal/storeserver"
)

// refRow and refPage are the decode the gateway used before scanPage:
// encoding/json into the three envelope fields, each row keeping its
// exact bytes and its "id". They stay here as the reference scanPage is
// held sound against.
type refRow struct {
	id  int32
	raw []byte
}

func (a *refRow) UnmarshalJSON(b []byte) error {
	var key struct {
		ID int32 `json:"id"`
	}
	if err := json.Unmarshal(b, &key); err != nil {
		return err
	}
	a.id = key.ID
	a.raw = append([]byte(nil), b...)
	return nil
}

type refPage struct {
	Apps       []refRow `json:"apps"`
	NextCursor string   `json:"next_cursor"`
	Total      int      `json:"total"`
}

// sound reports whether scanPage accepts body, and fails the test if it
// does where the reference decode refuses, or reads the page otherwise:
// other row ids, row bytes, next_cursor or total.
func sound(t *testing.T, body []byte) bool {
	t.Helper()
	got, gotErr := scanPage(body, nil)
	if gotErr != nil {
		return false
	}
	var want refPage
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanPage accepts %q, encoding/json refuses it: %v", body, err)
	}
	if len(got.rows) != len(want.Apps) {
		t.Fatalf("%q: %d rows, want %d", body, len(got.rows), len(want.Apps))
	}
	for i, row := range got.rows {
		if row.id != want.Apps[i].id {
			t.Fatalf("%q: row %d id %d, want %d", body, i, row.id, want.Apps[i].id)
		}
		if raw := body[row.off:row.end]; !bytes.Equal(raw, want.Apps[i].raw) {
			t.Fatalf("%q: row %d bytes %q, want %q", body, i, raw, want.Apps[i].raw)
		}
	}
	if string(got.next) != want.NextCursor {
		t.Fatalf("%q: next_cursor %q, want %q", body, got.next, want.NextCursor)
	}
	if got.total != want.Total {
		t.Fatalf("%q: total %d, want %d", body, got.total, want.Total)
	}
	return true
}

// shardSeeds are pages a shard writes, and the rest of what the grammar
// admits: every scalar form a row's value may take.
var shardSeeds = []string{
	`{"apps":[{"id":0,"name":"app-0","category":"games","developer":"dev-1","paid":false,"price":0,"has_ads":true,"size_mb":12.5,"version":3,"downloads":1234},{"id":7,"name":"app-7","category":"tools","developer":"dev-2","paid":true,"price":0.99,"has_ads":false,"size_mb":0.001,"version":1,"downloads":0}],"next_cursor":"YTg","total":2200}` + "\n",
	`{"apps":[],"total":0}` + "\n",
	`{"apps":[{"id":5}],"total":1}`,
	`{"apps":[{"id":2147483647}],"next_cursor":"-_AZaz09","total":9223372036854775807}`,
	`{"apps":[{"id":1,"name":"\u003cTools \u0026 Co\u003e \u2028\u2029\ufffd\"\\\n\r\t\u0000\b\f"}],"total":1}`,
	`{"apps":[{"id":1,"name":"a\/b\u00e9\ud83d\ude00\ud83d\u00E9é日本"}],"total":1}`,
	`{"apps":[{"id":1,"a":0,"b":-0,"c":0.0,"d":1.5,"e":-1.5e10,"f":1E-2,"g":1e+2,"h":1e-7,"i":5e-324,"j":-1.7976931348623157e+308}],"total":1}`,
	`{"apps":[{"id":1,"a":true,"b":false,"c":null,"d":"","e_2":"x","apps":1,"total":2,"next_cursor":3}],"total":1}`,
}

// refusedSeeds are pages a shard never writes, valid JSON or not: each
// is refused, however encoding/json would have read it.
var refusedSeeds = []string{
	// Envelope: reordered, repeated, unknown, missing and null members.
	`{"total":3,"next_cursor":"YTE","apps":[{"id":1}]}`,
	`{"apps":[{"id":1}],"total":1,"next_cursor":"YTE"}`,
	`{"total":1,"apps":[{"id":1}]}`,
	`{"apps":[{"id":1}],"total":1,"total":2}`,
	`{"apps":[{"id":1}],"apps":[],"total":1}`,
	`{"apps":[{"id":1}],"next_cursor":"a","next_cursor":"b","total":1}`,
	`{"apps":[{"id":1}],"day":3,"total":1}`,
	`{"apps":null,"total":0}`, `{"apps":[],"next_cursor":null,"total":0}`, `{"apps":[],"total":null}`,
	`{"apps":[]}`, `{"total":0}`, `{}`, `null`,
	` {"apps":[],"total":0}`, `{"apps":[],"total":0} `, `{"apps": [],"total":0}`, `{"apps":[ {"id":1}],"total":1}`,
	`{"apps":[{"id":1} ],"total":1}`, `{"apps":[{"id": 1}],"total":1}`, `{"apps":[{"id":1, "a":1}],"total":1}`,
	`{"apps":[],"total":0}` + "\r\n", `{"apps":[],"total":0}` + "\n\n",
	// Keys: case folding, escapes, names outside [a-z0-9_].
	`{"APPS":[],"total":0}`, `{"apps":[],"TOTAL":0}`, `{"apps":[],"Next_Cursor":"YTE","total":0}`,
	`{"\u0061pps":[],"total":0}`, `{"apps":[],"tot\u0061l":0}`, `{"app\u017f":[],"total":0}`, `{"appſ":[],"total":0}`,
	`{"apps":[{"ID":4}],"total":1}`, `{"apps":[{"Id":4}],"total":1}`, `{"apps":[{"\u0069d":4}],"total":1}`,
	`{"apps":[{"id":1,"Name":"x"}],"total":1}`, `{"apps":[{"id":1,"a-b":1}],"total":1}`, `{"apps":[{"id":1,"":1}],"total":1}`,
	`{"apps":[{"id":1,"n\u0061me":"x"}],"total":1}`, "{\"apps\":[{\"id\":1,\"\xff\":1}],\"total\":1}", `{"apps":[{"id":1,"namé":"x"}],"total":1}`,
	// The row's id: missing, null, repeated, not first, signed, overflowing, mistyped.
	`{"apps":[{}],"total":1}`, `{"apps":[{"name":"x"}],"total":1}`, `{"apps":[{"name":"x","id":1}],"total":1}`,
	`{"apps":[{"id":null}],"total":1}`, `{"apps":[{"id":3,"id":4}],"total":1}`, `{"apps":[{"id":3,"id":null}],"total":1}`,
	`{"apps":[{"id":-1}],"total":1}`, `{"apps":[{"id":-0}],"total":1}`, `{"apps":[{"id":00}],"total":1}`, `{"apps":[{"id":01}],"total":1}`,
	`{"apps":[{"id":2147483648}],"total":1}`, `{"apps":[{"id":99999999999999999999}],"total":1}`,
	`{"apps":[{"id":1.0}],"total":1}`, `{"apps":[{"id":1e0}],"total":1}`, `{"apps":[{"id":"1"}],"total":1}`,
	`{"apps":[{"id":true}],"total":1}`, `{"apps":[{"id":[1]}],"total":1}`, `{"apps":[{"id":{}}],"total":1}`,
	// Rows that are not objects.
	`{"apps":[null],"total":1}`, `{"apps":[null,{"id":2}],"total":2}`, `{"apps":[1],"total":1}`, `{"apps":["x"],"total":1}`,
	`{"apps":[[]],"total":1}`, `{"apps":[true],"total":1}`, `{"apps":{},"total":0}`, `{"apps":"x","total":0}`,
	// Nested row values.
	`{"apps":[{"id":1,"tags":[]}],"total":1}`, `{"apps":[{"id":1,"tags":["a"]}],"total":1}`, `{"apps":[{"id":1,"meta":{}}],"total":1}`,
	`{"apps":[{"id":1,"meta":{"id":9}}],"total":1}`, `{"apps":[{"x":` + strings.Repeat("[", 20) + strings.Repeat("]", 20) + `}],"total":1}`,
	// next_cursor: empty, escaped, outside base64url, mistyped.
	`{"apps":[{"id":1}],"next_cursor":"","total":1}`, `{"apps":[{"id":1}],"next_cursor":"Y\u0054E","total":1}`,
	`{"apps":[{"id":1}],"next_cursor":"YTE=","total":1}`, `{"apps":[{"id":1}],"next_cursor":"a+b/","total":1}`,
	`{"apps":[{"id":1}],"next_cursor":"a b","total":1}`, "{\"apps\":[{\"id\":1}],\"next_cursor\":\"a\xff\",\"total\":1}",
	`{"apps":[{"id":1}],"next_cursor":1,"total":1}`, `{"apps":[{"id":1}],"next_cursor":"YTE,"total":1}`,
	// total: signed, leading zero, fractional, overflowing, mistyped.
	`{"apps":[],"total":-3}`, `{"apps":[],"total":-0}`, `{"apps":[],"total":01}`, `{"apps":[],"total":1.0}`, `{"apps":[],"total":1e2}`,
	`{"apps":[],"total":9223372036854775808}`, `{"apps":[],"total":18446744073709551616}`, `{"apps":[],"total":"1"}`,
	`{"apps":[],"total":true}`, `{"apps":[],"total":[]}`, `{"apps":[],"total":}`,
	// Strings: raw control characters, bad escapes, unterminated.
	"{\"apps\":[{\"id\":1,\"name\":\"tab\tin\"}],\"total\":1}", "{\"apps\":[{\"id\":1,\"name\":\"nul\x00\"}],\"total\":1}",
	`{"apps":[{"id":1,"name":"\x41"}],"total":1}`, `{"apps":[{"id":1,"name":"\u12G4"}],"total":1}`, `{"apps":[{"id":1,"name":"\u00"}],"total":1}`,
	`{"apps":[{"id":1,"name":"\U0041"}],"total":1}`, `{"apps":[{"id":1,"name":"\'"}],"total":1}`,
	`{"apps":[{"id":1,"name":"open`, `{"apps":[{"id":1,"name":"esc\`, `{"apps":[{"id":1,"name":"\u12`,
	// Numbers in row values.
	`{"apps":[{"id":1,"x":01}],"total":1}`, `{"apps":[{"id":1,"x":-}],"total":1}`, `{"apps":[{"id":1,"x":1.}],"total":1}`,
	`{"apps":[{"id":1,"x":.5}],"total":1}`, `{"apps":[{"id":1,"x":1e}],"total":1}`, `{"apps":[{"id":1,"x":1e+}],"total":1}`,
	`{"apps":[{"id":1,"x":+1}],"total":1}`, `{"apps":[{"id":1,"x":0x1}],"total":1}`, `{"apps":[{"id":1,"x":1.5.2}],"total":1}`,
	`{"apps":[{"id":1,"x":-01}],"total":1}`, `{"apps":[{"id":1,"x":NaN}],"total":1}`, `{"apps":[{"id":1,"x":Infinity}],"total":1}`,
	// Literals.
	`{"apps":[{"id":1,"x":tru}],"total":1}`, `{"apps":[{"id":1,"x":nul}],"total":1}`, `{"apps":[{"id":1,"x":falsey}],"total":1}`,
	`{"apps":[{"id":1,"x":True}],"total":1}`, `{"apps":[{"id":1,"x":}],"total":1}`,
	// Structure.
	`{"apps":[{"id":1},],"total":1}`, `{"apps":[,{"id":1}],"total":1}`, `{"apps":[{"id":1}{"id":2}],"total":2}`,
	`{"apps":[{"id":1,}],"total":1}`, `{"apps":[{"id" 1}],"total":1}`, `{"apps":[{id:1}],"total":1}`, `{"apps":[{"id":1,"a"}],"total":1}`,
	`{"apps":[{"id":1}],"total":1`, `{"apps":[{"id":1}],"total":`, `{"apps":[{"id":1}],`, `{"apps":[{"id":1}]`, `{"apps":[{"id":1}`,
	`{"apps":[{"id":1`, `{"apps":[{"id":`, `{"apps":[{"id"`, `{"apps":[{`, `{"apps":[`, `{"apps":`, `{"apps"`, `{`, ``,
	`{"apps":[],"total":0}}`, `{"apps":[],"total":0} x`, `{"apps":[],"total":0}{"apps":[],"total":0}`, `{"apps":[],"total":0}` + "\n{",
	`[]`, `[{"id":1}]`, `[1,2,3]`, `5`, `"x"`, `true`, `}`,
	"\ufeff{\"apps\":[],\"total\":0}", "{\"apps\":[],\"total\":0}\x00",
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// TestScanPageSeeds pins the split: every shardSeeds page is accepted and
// read as encoding/json reads it, every refusedSeeds page is refused.
func TestScanPageSeeds(t *testing.T) {
	for _, seed := range shardSeeds {
		if !sound(t, []byte(seed)) {
			_, err := scanPage([]byte(seed), nil)
			t.Errorf("scanPage refuses a shard's page %q: %v", seed, err)
		}
	}
	for _, seed := range refusedSeeds {
		if sound(t, []byte(seed)) {
			t.Errorf("scanPage accepts %q, which no shard writes", seed)
		}
	}
}

// FuzzScanPage holds the scanner sound: whatever it accepts, encoding/json
// accepts too and reads alike — every row's id and byte range,
// next_cursor and total. Both seed lists are its corpus, so a plain `go
// test` replays them; CI adds a fixed -fuzz budget.
func FuzzScanPage(f *testing.F) {
	for _, seed := range append(append([]string(nil), shardSeeds...), refusedSeeds...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sound(t, body)
	})
}

// FuzzScanPageReadsShardPages holds the scanner complete: a cursor page
// encoding/json writes for any rows — hostile strings, any finite float,
// any non-negative id, with or without a next_cursor — is accepted with
// every row's bytes, id, the cursor and the total. A shard's pages are
// exactly these bytes: TestRowEncoderMatchesEncodingJSON holds its
// encoder to them.
func FuzzScanPageReadsShardPages(f *testing.F) {
	f.Add(int32(42), "app-42", "Games", "dev-00017", true, 0.99, false, 3.5, 2, int64(123456), uint8(3), int32(43), true, 2200)
	f.Add(int32(0), "", "", "", false, 0.0, true, 0.0, 0, int64(0), uint8(0), int32(0), false, 0)
	f.Add(int32(math.MaxInt32), "Tools & <Utilities>", "st\u00f6re\u2028\u2029", "d\"ev\\\x00\xff", false, 1e-7, true, 1e21, -3, int64(math.MinInt64), uint8(2), int32(math.MaxInt32), true, math.MaxInt)
	f.Add(int32(-1), "\t\n\r\b\f/", "\xc3\x28", "\u65e5\u672c", true, -math.MaxFloat64, false, 5e-324, math.MaxInt32, int64(math.MaxInt64), uint8(1), int32(-5), true, -1)
	f.Fuzz(func(t *testing.T, id int32, name, cat, dev string, paid bool, price float64, ads bool, size float64, version int, downloads int64, n uint8, next int32, more bool, total int) {
		if math.IsInf(price, 0) || math.IsNaN(price) || math.IsInf(size, 0) || math.IsNaN(size) {
			return // no JSON form: no shard writes it
		}
		page := storeserver.CursorPageJSON{Apps: []storeserver.AppJSON{}, Total: total & math.MaxInt}
		for i := 0; i < int(n%5); i++ {
			page.Apps = append(page.Apps, storeserver.AppJSON{
				ID: (id + int32(i)) & math.MaxInt32, Name: name, Category: cat, Developer: dev,
				Paid: paid, Price: price, HasAds: ads, SizeMB: size, Version: version, Downloads: downloads,
			})
		}
		if more {
			page.NextCursor = storeserver.EncodeCursor(int(next & math.MaxInt32))
		}
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(page); err != nil {
			t.Fatal(err)
		}
		got, err := scanPage(body.Bytes(), nil)
		if err != nil {
			t.Fatalf("scanPage refuses a shard's page %q: %v", body.Bytes(), err)
		}
		if len(got.rows) != len(page.Apps) || string(got.next) != page.NextCursor || got.total != page.Total {
			t.Fatalf("%q: %d rows, next_cursor %q, total %d", body.Bytes(), len(got.rows), got.next, got.total)
		}
		for i, row := range got.rows {
			want, _ := json.Marshal(page.Apps[i])
			if raw := body.Bytes()[row.off:row.end]; row.id != page.Apps[i].ID || !bytes.Equal(raw, want) {
				t.Fatalf("row %d: id %d bytes %q, want id %d bytes %q", i, row.id, raw, page.Apps[i].ID, want)
			}
		}
	})
}

// TestScanPageReusesRows pins the no-per-row-allocation contract: given
// room for the rows, scanning a page a shard would serve allocates
// nothing at all.
func TestScanPageReusesRows(t *testing.T) {
	body := []byte(shardSeeds[0])
	rows := make([]rowSpan, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		p, err := scanPage(body, rows)
		if err != nil || len(p.rows) != 2 || p.rows[1].id != 7 || string(p.next) != "YTg" || p.total != 2200 {
			t.Fatalf("scanPage: %+v, %v", p, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanPage allocated %.0f times on a plain page, want 0", allocs)
	}
}
