// Package gzipx is the one place the module touches compress/gzip: pooled
// compressors for fill-time pre-compression (storeserver), pooled
// decompressors for fill-time validation (edgecache) and transparent
// client-side decoding (resilient), the Accept-Encoding negotiation scan
// every tier shares, and the one rule for whether a document keeps a gzip
// representation at all (CompressIfPays). Nothing here allocates on a
// steady-state serving path — compression happens at most once per content
// version, decompression once per origin fill or crawl fetch, and
// AcceptsGzip is a pure byte scan.
//
// # When gzip pays
//
// The traffic this store exists for is the paper's: crawl every app once a
// day. A crawler fetches a document about once per content version, so a
// compress is amortised over about one response, not over a day of hits,
// and its cost (compress/flate clears ~640 KiB of hash tables per stream
// before it looks at a byte) is the serving cost. A gzip representation
// also costs the response head 27 bytes — the "Content-Encoding: gzip\r\n"
// line and the "-gz" ETag suffix — so it must beat the identity body by
// more than that to shrink anything. Measured on this API's documents
// (TestPayTable regenerates and pins the table):
//
//	document             identity     gzip   net of framing (min / mean / max)
//	detail row              183 B    167 B     -16 /   -11.2 /     -5 B
//	comments  <=128 B        63 B     70 B     -51 /   -34.4 /     -3 B
//	comments 129-192 B      164 B    114 B     +20 /   +23.1 /    +26 B
//	comments 193-255 B      224 B    129 B     +51 /   +67.5 /    +85 B
//	comments 256-511 B      387 B    169 B    +109 /  +191.1 /   +273 B
//	comments 0.5-2 KiB     1276 B    359 B    +294 /  +889.4 /  +1485 B
//	listing page          18260 B   2665 B          +15567 B
//
// ("[]\n", the comment stream of every app nobody has commented on, is
// 3 B and gzips to 27 B.) Below 256 bytes the best case saves a few dozen
// bytes and the common case — every detail row, most comment streams —
// loses, so nothing under minPayingSize is compressed at all; from there
// up the representation is kept only when it shrinks the response.
package gzipx

import (
	"bytes"
	"compress/gzip"
	"sync"
)

var writerPool = sync.Pool{New: func() any {
	// DefaultCompression: whatever clears the pay rule is large (listing
	// pages, long comment streams) and wire size wins over compressor
	// speed there.
	zw, _ := gzip.NewWriterLevel(nil, gzip.DefaultCompression)
	return zw
}}

var readerPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Compress returns src gzip-compressed into a fresh exactly-sized slice.
// The writer and scratch buffer are pooled; only the returned copy escapes.
func Compress(src []byte) []byte {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	zw := writerPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	zw.Write(src) //nolint:errcheck // bytes.Buffer cannot fail
	zw.Close()    //nolint:errcheck // bytes.Buffer cannot fail
	out := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	writerPool.Put(zw)
	bufPool.Put(buf)
	return out
}

// framing is what a gzip representation adds to the response head next to
// the identity one: the Content-Encoding line and the "-gz" ETag suffix.
const framing = len("Content-Encoding: gzip\r\n") + len("-gz")

// minPayingSize is the floor under which compression is not attempted: no
// document of this API below it saves more than a few dozen bytes and most
// lose (see the package comment; TestPayTable holds the measurement).
const minPayingSize = 256

// CompressIfPays returns src's gzip representation, or nil when keeping
// one cannot make the response smaller: src is under the size floor, or
// the compressed bytes plus the framing they cost are no shorter than src.
// Identity is always a valid answer, so nil means "serve src as it is".
func CompressIfPays(src []byte) []byte {
	if len(src) < minPayingSize {
		return nil
	}
	if z := Compress(src); len(z)+framing < len(src) {
		return z
	}
	return nil
}

// Decompress inflates a whole gzip stream into a fresh slice. Any framing,
// checksum, or truncation damage surfaces as the error — callers treat it
// exactly like an undecodable body (re-fetch), never as data.
func Decompress(src []byte) ([]byte, error) {
	zr := readerPool.Get().(*gzip.Reader)
	if err := zr.Reset(bytes.NewReader(src)); err != nil {
		readerPool.Put(zr)
		return nil, err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(zr)
	if err == nil {
		err = zr.Close() // surfaces the trailing CRC/length check
	}
	var out []byte
	if err == nil {
		out = append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	}
	bufPool.Put(buf)
	readerPool.Put(zr)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AcceptsGzip reports whether an Accept-Encoding header value admits gzip:
// a "gzip" token (case-insensitive, optional parameters) whose q-value is
// not zero. A pure scan over the input — no splitting, no allocation —
// because the server consults it on every hot-path request. The wildcard
// "*" is deliberately not treated as gzip consent: every client we care
// about (Go's transport, curl, browsers, the edge tier) names gzip
// explicitly, and identity is always a correct answer.
func AcceptsGzip(ae string) bool {
	for i := 0; i < len(ae); {
		// One comma-separated element: [start, end).
		start := i
		for i < len(ae) && ae[i] != ',' {
			i++
		}
		end := i
		i++ // skip the comma
		// Trim surrounding spaces/tabs.
		for start < end && (ae[start] == ' ' || ae[start] == '\t') {
			start++
		}
		for end > start && (ae[end-1] == ' ' || ae[end-1] == '\t') {
			end--
		}
		// Split off ";parameters".
		tokEnd := start
		for tokEnd < end && ae[tokEnd] != ';' {
			tokEnd++
		}
		te := tokEnd
		for te > start && (ae[te-1] == ' ' || ae[te-1] == '\t') {
			te--
		}
		if !tokenIsGzip(ae[start:te]) {
			continue
		}
		if qZero(ae[tokEnd:end]) {
			continue
		}
		return true
	}
	return false
}

func tokenIsGzip(tok string) bool {
	if len(tok) != 4 {
		return false
	}
	return (tok[0]|0x20) == 'g' && (tok[1]|0x20) == 'z' &&
		(tok[2]|0x20) == 'i' && (tok[3]|0x20) == 'p'
}

// qZero reports whether params (";q=0", ";q=0.000", possibly with spaces)
// assigns a zero quality. Anything unparseable counts as non-zero — the
// safe default is "client accepts it".
func qZero(params string) bool {
	for i := 0; i < len(params); i++ {
		if params[i] != 'q' && params[i] != 'Q' {
			continue
		}
		j := i + 1
		for j < len(params) && (params[j] == ' ' || params[j] == '\t') {
			j++
		}
		if j >= len(params) || params[j] != '=' {
			continue
		}
		j++
		for j < len(params) && (params[j] == ' ' || params[j] == '\t') {
			j++
		}
		if j >= len(params) || params[j] != '0' {
			return false
		}
		// "0", "0.", "0.0", "0.00", "0.000" are zero; any non-zero digit
		// after the point means a tiny-but-positive q.
		for j++; j < len(params); j++ {
			c := params[j]
			if c == '.' || c == '0' {
				continue
			}
			if c >= '1' && c <= '9' {
				return false
			}
			break // end of the q value (space, comma handled by caller, etc.)
		}
		return true
	}
	return false
}
