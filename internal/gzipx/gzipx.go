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
	"strings"
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
// a "gzip" coding (ASCII case-insensitive) whose weight is not zero. The
// weight is the first parameter named q (RFC 9110 §12.4.2: any case,
// optional whitespace around "="); other parameters are ignored, and a
// weight that is not a zero qvalue ("0", "0." up to "0.000") counts as
// non-zero — the safe default is "client accepts it". A pure scan over the
// input — no allocation — because the server consults it on every hot-path
// request. The wildcard "*" is deliberately not treated as gzip consent:
// every client we care about (Go's transport, curl, browsers, the edge
// tier) names gzip explicitly, and identity is always a correct answer.
func AcceptsGzip(ae string) bool {
	for ae != "" {
		var elem string
		elem, ae, _ = strings.Cut(ae, ",")
		coding, params, _ := strings.Cut(elem, ";")
		if equalFoldASCII(trimOWS(coding), "gzip") && !zeroWeight(params) {
			return true
		}
	}
	return false
}

// zeroWeight reports whether params, a coding's ";"-separated parameters,
// give it weight zero.
func zeroWeight(params string) bool {
	for params != "" {
		var param string
		param, params, _ = strings.Cut(params, ";")
		if name, value, ok := strings.Cut(param, "="); ok && equalFoldASCII(trimOWS(name), "q") {
			switch trimOWS(value) {
			case "0", "0.", "0.0", "0.00", "0.000":
				return true
			}
			return false
		}
	}
	return false
}

// trimOWS strips HTTP's optional whitespace: spaces and tabs.
func trimOWS(s string) string { return strings.Trim(s, " \t") }

// equalFoldASCII reports whether s is lower, a lower-case ASCII word, in
// any case.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}
