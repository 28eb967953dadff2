package fleet

import (
	"math"
	"strconv"
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
	next  []byte // next_cursor; empty on the shard's last slice
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

// scanPage reads one shard cursor page in place and appends each row's
// span to rows[:0]. It accepts the one page a shard writes
// (storeserver's handleList, whose bytes TestRowEncoderMatchesEncodingJSON
// holds to encoding/json's) and refuses everything else, other valid
// JSON included:
//
//	page  = `{"apps":[` [row *("," row)] "]"
//	        [`,"next_cursor":"` 1*base64url `"`] `,"total":` uint "}" ["\n"]
//	row   = `{"id":` uint *(`,"` key `":` value) "}"
//	key   = 1*[a-z0-9_], other than "id"
//	value = string / number / "true" / "false" / "null"
//
// with nothing between tokens and nothing after the page. A uint is
// written as encoding/json writes a non-negative integer — no sign, no
// leading zero — and a row's id fits int32, the total an int. Rows are
// spliced verbatim into the gateway's page, so every string's escapes
// and every number's syntax are checked and raw control characters are
// refused. FuzzScanPage holds what it accepts to encoding/json's reading
// of the same bytes; FuzzScanPageReadsShardPages holds it to accepting
// every page a shard can write. Nothing is allocated.
func scanPage(body []byte, rows []rowSpan) (scannedPage, error) {
	if len(body) > math.MaxInt32 {
		return scannedPage{}, &scanError{0, "page too large"}
	}
	s := pageScanner{b: body}
	p := scannedPage{rows: rows[:0]}
	if s.expect(`{"apps":[`) && !s.eat("]") {
		for more := true; more; more = s.eat(",") {
			off := s.i
			id := s.row()
			p.rows = append(p.rows, rowSpan{id: id, off: int32(off), end: int32(s.i)})
		}
		s.expect("]")
	}
	if s.eat(`,"next_cursor":"`) {
		start := s.i
		for s.i < len(body) && isBase64URL(body[s.i]) {
			s.i++
		}
		if p.next = body[start:s.i]; len(p.next) == 0 {
			s.fail("empty next_cursor")
		}
		s.expect(`"`)
	}
	if s.expect(`,"total":`) {
		p.total = int(s.uint(math.MaxInt))
	}
	s.expect("}")
	s.eat("\n")
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
	b   []byte
	i   int
	err error
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

// eat consumes tok if the input goes on with it.
func (s *pageScanner) eat(tok string) bool {
	if s.err != nil || len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

func (s *pageScanner) expect(tok string) bool {
	return s.eat(tok) || s.fail("expected "+tok)
}

// row consumes one listing row and returns its id.
func (s *pageScanner) row() int32 {
	if !s.expect(`{"id":`) {
		return 0
	}
	id := int32(s.uint(math.MaxInt32))
	for s.eat(`,"`) {
		start := s.i
		for isKeyByte(s.peek()) {
			s.i++
		}
		if key := s.b[start:s.i]; len(key) == 0 || string(key) == "id" {
			s.i = start
			s.fail("bad member name")
		}
		s.expect(`":`)
		s.value()
	}
	s.expect("}")
	return id
}

// value consumes a row member's value: a scalar, never an object or array.
func (s *pageScanner) value() {
	switch c := s.peek(); {
	case s.err != nil:
	case c == '"':
		s.str()
	case c == '-' || isDigit(c):
		s.num()
	case s.eat("true") || s.eat("false") || s.eat("null"):
	default:
		s.fail("expected a string, number, true, false or null")
	}
}

// str consumes a string, checking every escape.
func (s *pageScanner) str() {
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return
		case c < 0x20:
			s.fail("control character in string")
			return
		case c == '\\':
			s.i++
			hex := 0
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				hex = 4
			default:
				s.fail("bad escape")
				return
			}
			for ; hex > 0; hex-- {
				if s.i++; !isHex(s.peek()) {
					s.fail(`bad \u escape`)
					return
				}
			}
		}
	}
	s.fail("unterminated string")
}

// num consumes a number as the JSON grammar spells it.
func (s *pageScanner) num() {
	s.eat("-")
	if !s.eat("0") {
		s.digits()
	}
	if s.eat(".") {
		s.digits()
	}
	if s.eat("e") || s.eat("E") {
		_ = s.eat("+") || s.eat("-")
		s.digits()
	}
}

func (s *pageScanner) digits() {
	if s.err == nil && !isDigit(s.peek()) {
		s.fail("expected a digit")
	}
	for s.err == nil && isDigit(s.peek()) {
		s.i++
	}
}

// uint consumes an unsigned integer no greater than max, written without
// a leading zero.
func (s *pageScanner) uint(max uint64) uint64 {
	start := s.i
	var v uint64
	for isDigit(s.peek()) {
		d := uint64(s.b[s.i] - '0')
		if v > (max-d)/10 {
			s.fail("integer out of range")
			return 0
		}
		v = v*10 + d
		s.i++
	}
	switch {
	case s.i == start:
		s.fail("expected an unsigned integer")
	case s.b[start] == '0' && s.i > start+1:
		s.fail("leading zero")
	}
	return v
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' }

func isKeyByte(c byte) bool { return c >= 'a' && c <= 'z' || isDigit(c) || c == '_' }

func isBase64URL(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || isDigit(c) || c == '-' || c == '_'
}
