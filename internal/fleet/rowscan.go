package fleet

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// rowSpan locates one listing row inside a shard's response body:
// body[off:end] is the row's JSON value exactly as the shard encoded it,
// id its merge key.
type rowSpan struct {
	id       int32
	off, end int32
}

// scannedPage is what the gateway needs out of a shard's cursor page.
type scannedPage struct {
	rows  []rowSpan
	next  []byte // next_cursor, unescaped; empty on the shard's last slice
	total int
}

// scanError reports where a shard's page stopped being a listing page.
type scanError struct {
	off int
	msg string
}

func (e *scanError) Error() string {
	return "malformed listing page at byte " + strconv.Itoa(e.off) + ": " + e.msg
}

// maxScanDepth is encoding/json's nesting limit, kept so the walker
// rejects exactly the documents the decoder it replaced rejected.
const maxScanDepth = 10000

// scanPage walks one shard cursor page — {"apps":[row,...],
// "next_cursor":"...","total":N} — in place and appends each row's span
// to rows[:0]. It is a full structural JSON walk (every string, number,
// literal and nesting level is validated; nothing may follow the page),
// and it accepts exactly what decoding the page with encoding/json into
// a struct of those three fields accepted: keys match case-folded after
// unescaping, unknown keys are skipped, a repeated key's last value
// wins, null leaves a field as it was, a row is an object (or null)
// whose optional "id" is an integer that fits int32. FuzzScanPage holds
// the two to that agreement. Nothing is allocated per row; only a
// non-ASCII or escaped key or cursor is copied to be decoded.
func scanPage(body []byte, rows []rowSpan) (scannedPage, error) {
	if len(body) > math.MaxInt32 {
		return scannedPage{}, &scanError{0, "page too large"}
	}
	s := pageScanner{b: body}
	p := scannedPage{rows: rows[:0]}
	s.ws()
	switch s.peek() {
	case '{':
		s.envelope(&p)
	case 'n': // a null document decodes as the zero page
		s.lit("null")
	default:
		s.fail("page is not an object")
	}
	s.ws()
	if s.err == nil && s.i != len(body) {
		s.fail("data after the page")
	}
	if s.err != nil {
		return scannedPage{}, s.err
	}
	return p, nil
}

// pageScanner is a cursor over one page. The first failure is kept in
// err and every later step declines to advance, so callers check once.
type pageScanner struct {
	b     []byte
	i     int
	depth int
	err   error
}

func (s *pageScanner) fail(msg string) bool {
	if s.err == nil {
		s.err = &scanError{s.i, msg}
	}
	return false
}

// peek returns the byte under the cursor, 0 at the end of input (a NUL
// is legal nowhere the callers look).
func (s *pageScanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *pageScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// open steps into the object or array under the cursor and reports
// whether it has a first member; more, after each member, whether
// another follows. Together they drive `for m := s.open(c); m; m = s.more(c)`.
func (s *pageScanner) open(closer byte) bool {
	s.i++
	if s.depth++; s.depth > maxScanDepth {
		return s.fail("nesting too deep")
	}
	s.ws()
	if s.peek() == closer {
		s.i++
		s.depth--
		return false
	}
	return true
}

func (s *pageScanner) more(closer byte) bool {
	if s.err != nil {
		return false
	}
	s.ws()
	switch s.peek() {
	case ',':
		s.i++
		s.ws()
		return true
	case closer:
		s.i++
		s.depth--
		return false
	}
	return s.fail("expected , or " + string(closer))
}

// str consumes a string and returns its contents between the quotes.
// coded reports an escape or a non-ASCII byte: such contents differ from
// their decoded value and go through unquote before they are compared.
func (s *pageScanner) str() (raw []byte, coded, ok bool) {
	if s.peek() != '"' {
		return nil, false, s.fail("expected a string")
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], coded, true
		case c == '\\':
			coded = true
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				for k := 0; k < 4; k++ {
					if hexVal(s.peek()) < 0 {
						return nil, false, s.fail("bad \\u escape")
					}
					s.i++
				}
			default:
				return nil, false, s.fail("bad escape")
			}
		case c < 0x20:
			return nil, false, s.fail("control character in string")
		default:
			coded = coded || c >= utf8.RuneSelf
			s.i++
		}
	}
	return nil, false, s.fail("unterminated string")
}

// key consumes `"name":` and leaves the cursor on the member's value.
func (s *pageScanner) key() (raw []byte, coded bool) {
	raw, coded, ok := s.str()
	if !ok {
		return nil, false
	}
	s.ws()
	if s.peek() != ':' {
		s.fail("expected :")
		return nil, false
	}
	s.i++
	s.ws()
	return raw, coded
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (s *pageScanner) digits() bool {
	if !isDigit(s.peek()) {
		return s.fail("expected a digit")
	}
	for isDigit(s.peek()) {
		s.i++
	}
	return true
}

// num consumes a number; integer reports no fraction and no exponent.
func (s *pageScanner) num() (raw []byte, integer, ok bool) {
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else if !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.peek() == '.' {
		integer = false
		s.i++
		if !s.digits() {
			return nil, false, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		integer = false
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integer, true
}

func (s *pageScanner) lit(word string) bool {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return s.fail("bad literal")
	}
	s.i += len(word)
	return true
}

// skip consumes any one value, validating all of it.
func (s *pageScanner) skip() {
	if s.err != nil {
		return
	}
	switch c := s.peek(); {
	case c == '{':
		for m := s.open('}'); m; m = s.more('}') {
			s.key()
			s.skip()
		}
	case c == '[':
		for m := s.open(']'); m; m = s.more(']') {
			s.skip()
		}
	case c == '"':
		s.str()
	case c == 't':
		s.lit("true")
	case c == 'f':
		s.lit("false")
	case c == 'n':
		s.lit("null")
	case c == '-' || isDigit(c):
		s.num()
	default:
		s.fail("expected a value")
	}
}

// intValue consumes the value of an integer field of the given width: null
// leaves the field at cur, anything else must be an integer that fits.
func (s *pageScanner) intValue(cur int64, bits uint) int64 {
	c := s.peek()
	if c == 'n' {
		s.lit("null")
		return cur
	}
	if c != '-' && !isDigit(c) {
		s.fail("expected an integer")
		return cur
	}
	raw, integer, ok := s.num()
	if !ok {
		return cur
	}
	if integer {
		if v, fits := parseInt(raw, bits); fits {
			return v
		}
	}
	s.fail("not an integer of " + strconv.Itoa(int(bits)) + " bits")
	return cur
}

// parseInt converts a validated integer-syntax number if it fits a
// signed integer of the given width.
func parseInt(raw []byte, bits uint) (int64, bool) {
	neg := raw[0] == '-'
	if neg {
		raw = raw[1:]
	}
	var v uint64
	for _, c := range raw {
		if v > (math.MaxUint64-9)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		return -int64(v), v <= limit
	}
	return int64(v), v < limit
}

func (s *pageScanner) envelope(p *scannedPage) {
	for m := s.open('}'); m; m = s.more('}') {
		key, coded := s.key()
		switch {
		case s.err != nil:
		case keyIs(key, coded, "apps"):
			s.apps(p)
		case keyIs(key, coded, "next_cursor"):
			if s.peek() == 'n' {
				s.lit("null")
			} else if raw, coded, ok := s.str(); ok {
				if coded {
					raw = unquote(raw)
				}
				p.next = raw
			}
		case keyIs(key, coded, "total"):
			p.total = int(s.intValue(int64(p.total), strconv.IntSize))
		default:
			s.skip()
		}
	}
}

func (s *pageScanner) apps(p *scannedPage) {
	p.rows = p.rows[:0] // a repeated key replaces the earlier array
	switch s.peek() {
	case '[':
	case 'n':
		s.lit("null")
		return
	default:
		s.fail("apps is not an array")
		return
	}
	for m := s.open(']'); m; m = s.more(']') {
		off := s.i
		id := s.row()
		p.rows = append(p.rows, rowSpan{id: id, off: int32(off), end: int32(s.i)})
	}
}

// row consumes one listing row and returns its id (0 when absent, as
// the decoder left it).
func (s *pageScanner) row() (id int32) {
	switch s.peek() {
	case '{':
	case 'n':
		s.lit("null")
		return 0
	default:
		s.fail("row is not an object")
		return 0
	}
	for m := s.open('}'); m; m = s.more('}') {
		key, coded := s.key()
		switch {
		case s.err != nil:
		case keyIs(key, coded, "id"):
			id = int32(s.intValue(int64(id), 32))
		default:
			s.skip()
		}
	}
	return id
}

// keyIs reports whether an object key names field the way encoding/json
// matches struct fields: exactly, else case-folded once unescaped.
func keyIs(raw []byte, coded bool, field string) bool {
	if string(raw) == field {
		return true
	}
	if coded {
		raw = unquote(raw)
	}
	return bytes.EqualFold(raw, []byte(field))
}

func hexVal(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// hex4 reads the XXXX of a \uXXXX escape at the head of b, or -1 when
// b does not start with one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		h := hexVal(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
}

// unquote decodes the contents of a string str accepted, as
// encoding/json does: escapes resolved, surrogate pairs joined, lone
// surrogates and invalid UTF-8 replaced by U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(raw[i:])); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			c = raw[i+1]
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			out = append(out, c)
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}
