package storeserver

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"planetapps/internal/arena"
	"planetapps/internal/catalog"
)

// The encoders below write AppJSON, []CommentJSON and StatsJSON exactly as
// encoding/json would — same key order, same float and string rules — by
// appending to a byte slice: no reflection, no slice of row structs, no
// allocation beyond dst's growth. Rows are the unit every document path
// renders (detail document, listing slice), so this is the one place their
// bytes are decided; a document that keeps no bytes in its arena region is
// re-encoded through them on every 200 it serves.
// TestRowEncoderMatchesEncodingJSON and the FuzzAppend* targets hold them
// to json.Marshal of the wire structs.

// appendRow appends row i's AppJSON object. The name is rendered into a
// stack buffer and viewed as a string for the length of the call, so a row
// costs no allocation at all.
func (sn *snapshot) appendRow(dst []byte, i int) []byte {
	a := sn.ex.App(i)
	var name [48]byte
	row := AppJSON{
		ID:        int32(a.ID),
		Name:      arena.AsString(appendAppName(name[:0], sn.store, int32(a.ID))),
		Category:  sn.catNames[a.Category],
		Developer: sn.devNames[a.Dev],
		Paid:      a.Pricing == catalog.Paid,
		Price:     a.Price,
		HasAds:    a.HasAds,
		SizeMB:    a.SizeMB,
		Version:   a.Versions,
		Downloads: sn.ex.Downloads(i),
	}
	return appendAppJSON(dst, &row)
}

// appendAppJSON appends a as encoding/json renders the struct.
func appendAppJSON(dst []byte, a *AppJSON) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(a.ID), 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, a.Name)
	dst = append(dst, `,"category":`...)
	dst = appendJSONString(dst, a.Category)
	dst = append(dst, `,"developer":`...)
	dst = appendJSONString(dst, a.Developer)
	dst = append(dst, `,"paid":`...)
	dst = strconv.AppendBool(dst, a.Paid)
	dst = append(dst, `,"price":`...)
	dst = appendJSONFloat(dst, a.Price)
	dst = append(dst, `,"has_ads":`...)
	dst = strconv.AppendBool(dst, a.HasAds)
	dst = append(dst, `,"size_mb":`...)
	dst = appendJSONFloat(dst, a.SizeMB)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(a.Version), 10)
	dst = append(dst, `,"downloads":`...)
	dst = strconv.AppendInt(dst, a.Downloads, 10)
	return append(dst, '}')
}

// appendRows appends rows [lo, hi) as the value of an "apps" key: a JSON
// array, "[]" when the span is empty.
func (sn *snapshot) appendRows(dst []byte, lo, hi int) []byte {
	dst = append(dst, '[')
	for i := lo; i < hi; i++ {
		if i > lo {
			dst = append(dst, ',')
		}
		dst = sn.appendRow(dst, i)
	}
	return append(dst, ']')
}

// appendComments appends a comment stream as a JSON array ("[]" for an
// empty or nil stream — the wire never says null).
func appendComments(dst []byte, cs []CommentJSON) []byte {
	dst = append(dst, '[')
	for i, c := range cs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"user":`...)
		dst = strconv.AppendInt(dst, int64(c.User), 10)
		dst = append(dst, `,"rating":`...)
		dst = strconv.AppendInt(dst, int64(c.Rating), 10)
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, c.UnixTime, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendStats appends the store's StatsJSON object.
func (sn *snapshot) appendStats(dst []byte) []byte {
	dst = append(dst, `{"store":`...)
	dst = appendJSONString(dst, sn.store)
	dst = append(dst, `,"day":`...)
	dst = strconv.AppendInt(dst, int64(sn.day), 10)
	dst = append(dst, `,"apps":`...)
	dst = strconv.AppendInt(dst, int64(sn.n), 10)
	dst = append(dst, `,"total_downloads":`...)
	dst = strconv.AppendInt(dst, sn.ex.TotalDownloads(), 10)
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json copies through untouched is appended directly; a string
// holding anything else (quotes, backslashes, the HTML-escaped <>&, control
// bytes, any non-ASCII byte) goes through json.Marshal, so the escaping
// rules live in one library and not here.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// The clone keeps s itself from escaping into Marshal's
			// interface argument: callers pass views of stack buffers.
			b, err := json.Marshal(strings.Clone(s))
			if err != nil {
				panic(err) // a string cannot fail to marshal
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f the way encoding/json renders a float64:
// shortest round-trip digits, %f form except below 1e-6 or from 1e21 up,
// where it is %e with the exponent's leading zero dropped. NaN and the
// infinities have no JSON form; like encodeJSON this panics on them — row
// fields are generated prices and sizes, so one here is a bug.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
