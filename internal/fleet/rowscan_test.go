package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// refRow and refPage are the decode the gateway used before scanPage:
// encoding/json into the three envelope fields, each row keeping its
// exact bytes and its "id". They stay here as the reference scanPage is
// compared against.
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

// agree fails the test unless scanPage and the reference decode treat
// body alike: both reject it, or both accept it with the same ids, row
// bytes, next_cursor and total.
func agree(t *testing.T, body []byte) {
	t.Helper()
	var want refPage
	wantErr := json.Unmarshal(body, &want)
	got, gotErr := scanPage(body, nil)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differs on %q:\n  encoding/json: %v\n  scanPage:      %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
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
}

// scanSeeds is the committed corpus: every shape the walker has a rule
// for, valid and not.
var scanSeeds = []string{
	// What a shard serves.
	`{"apps":[{"id":0,"name":"app-0","category":"games","developer":"dev-1","paid":false,"price":0,"has_ads":true,"size_mb":12.5,"version":3,"downloads":1234},{"id":7,"name":"app-7","category":"tools","developer":"dev-2","paid":true,"price":0.99,"has_ads":false,"size_mb":1e-3,"version":1,"downloads":0}],"next_cursor":"YTg","total":2200}` + "\n",
	`{"apps":[],"total":0}` + "\n",
	`{"apps":[{"id":5}],"total":1}`,
	// Envelope: reordered, repeated, unknown and null members.
	`{"total":3,"next_cursor":"YTE","apps":[{"id":1}]}`,
	`{"total":1,"total":2,"apps":[{"id":1}],"apps":[{"id":2},{"id":3}],"next_cursor":"a","next_cursor":"b"}`,
	`{"apps":[{"id":1}],"apps":null,"total":4,"total":null,"next_cursor":"x","next_cursor":null}`,
	`{"apps":[{"id":1}],"apps":[]}`,
	`{"apps":null}`,
	`{}`,
	`null`,
	` { "apps" : [ { "id" : 1 } , { "id" : 2 } ] , "total" : 2 } `,
	`{"extra":{"a":[1,2,{"b":null}],"c":"d"},"apps":[{"id":1,"tags":[[],{}],"meta":{"id":9}}],"more":[true,false,null,-1.5e+3],"total":1}`,
	`{"next":"x","day":"3","etag":"e","cc":"c","age":"1","apps":[]}`,
	// Keys: case folding and escapes.
	`{"APPS":[{"ID":4},{"Id":5},{"iD":6}],"Next_Cursor":"q","TOTAL":9}`,
	`{"\u0061pps":[{"\u0069d":8}],"tot\u0061l":1,"next_cur\u017For":"k"}`,
	`{"app\u017f":[{"id":1}],"appſ":[{"id":2}],"apps ":[{"id":3}],"app":[5]}`,
	"{\"apps\xff\":[1],\"\xffapps\":2,\"apps\":[{\"\xff\":1,\"id\":3}]}",
	`{"":1,"apps":[{"":{},"id":2}]}`,
	// Strings: escapes, surrogates, raw UTF-8, invalid UTF-8.
	`{"apps":[{"id":1,"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00"}],"next_cursor":"a\"b\\\/\b\f\n\r\t","total":1}`,
	`{"next_cursor":"\ud83d\ude00\ud83d\ud83dx\ude00\u0000é日本"}`,
	`{"next_cursor":"\ud83d"}`,
	`{"next_cursor":"\ud83d\u00"}`,
	"{\"next_cursor\":\"a\xffb\xc3\x28\xe2\x82\"}",
	"{\"next_cursor\":\"tab\tin\"}",
	`{"next_cursor":"\x41"}`,
	`{"next_cursor":"\u12G4"}`,
	`{"next_cursor":"open`,
	`{"next_cursor":"esc\`,
	// Field types.
	`{"apps":{}}`, `{"apps":"x"}`, `{"apps":1}`, `{"apps":true}`,
	`{"apps":[1]}`, `{"apps":["x"]}`, `{"apps":[[]]}`, `{"apps":[true]}`, `{"apps":[null]}`, `{"apps":[null,{"id":2}]}`,
	`{"next_cursor":1}`, `{"next_cursor":{}}`, `{"next_cursor":["a"]}`, `{"next_cursor":false}`,
	`{"total":"1"}`, `{"total":1.0}`, `{"total":1e2}`, `{"total":-3}`, `{"total":-0}`, `{"total":[]}`, `{"total":true}`,
	`{"total":9223372036854775807}`, `{"total":9223372036854775808}`, `{"total":-9223372036854775808}`, `{"total":-9223372036854775809}`,
	`{"total":18446744073709551616}`, `{"total":99999999999999999999999999}`,
	// The row's id: missing, null, repeated, negative, overflowing, mistyped.
	`{"apps":[{}]}`, `{"apps":[{"name":"x"}]}`, `{"apps":[{"id":null}]}`, `{"apps":[{"id":3,"id":null}]}`, `{"apps":[{"id":3,"id":4}]}`,
	`{"apps":[{"id":-1}]}`, `{"apps":[{"id":-0}]}`, `{"apps":[{"id":2147483647}]}`, `{"apps":[{"id":2147483648}]}`,
	`{"apps":[{"id":-2147483648}]}`, `{"apps":[{"id":-2147483649}]}`, `{"apps":[{"id":1.0}]}`, `{"apps":[{"id":1e0}]}`,
	`{"apps":[{"id":"1"}]}`, `{"apps":[{"id":true}]}`, `{"apps":[{"id":[1]}]}`, `{"apps":[{"id":{}}]}`,
	// Numbers in skipped values.
	`{"x":[0,-0,0.0,1.5,-1.5e10,1E-2,1e+2]}`, `{"x":01}`, `{"x":-}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":1e+}`, `{"x":+1}`, `{"x":0x1}`,
	// Literals and structure.
	`{"x":tru}`, `{"x":nul}`, `{"x":falsey}`, `{"x":True}`, `nul`, `nullx`, `null null`,
	`{"apps":[{"id":1},]}`, `{"apps":[,{"id":1}]}`, `{"apps":[{"id":1}{"id":2}]}`, `{"apps":[{"id":1,}]}`, `{"apps":[{"id" 1}]}`, `{"apps":[{id:1}]}`,
	`{"apps":[{"id":1}]`, `{"apps":[{"id":1}`, `{"apps":[{"id":1`, `{"apps":[{"id":`, `{"apps":[{"id"`, `{"apps":[{`, `{"apps":[`, `{"apps":`, `{"apps"`, `{`, ``,
	`{"apps":[]}}`, `{"apps":[]} x`, `{"apps":[]}{"apps":[]}`, `[]`, `[{"id":1}]`, `5`, `"x"`, `true`, `}`,
	"\ufeff{}", "{\"apps\":[]}\x00",
	strings.Repeat("[", 20) + strings.Repeat("]", 20),
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"apps":[{"x":` + strings.Repeat(`{"a":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
	`{"apps":[{"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
}

func TestScanPageAgreesWithEncodingJSON(t *testing.T) {
	for _, seed := range scanSeeds {
		agree(t, []byte(seed))
	}
}

// FuzzScanPage holds the walker to the decoder it replaced: on any input
// the two agree on accept/reject, and on accept on every row's id and
// byte range, on next_cursor and on total. scanSeeds is its corpus, so a
// plain `go test` replays every seed; CI adds a fixed -fuzz budget.
func FuzzScanPage(f *testing.F) {
	for _, seed := range scanSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		agree(t, body)
	})
}

// TestScanPageReusesRows pins the no-per-row-allocation contract: given
// room for the rows, scanning a page a shard would serve allocates
// nothing at all.
func TestScanPageReusesRows(t *testing.T) {
	body := []byte(scanSeeds[0])
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
