package storeserver

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planetapps/internal/arena"
	"planetapps/internal/gzipx"
	"planetapps/internal/marketsim"
)

// bufPool recycles the scratch buffers responses are encoded into. What a
// document keeps is copied out into arena slabs, so a pooled buffer only
// lives for the duration of one fill or one response and its capacity is
// reused instead of re-growing from zero each time.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// maxPooledBufCap bounds what putBuf will park: one huge listing-slice
// encode must not pin a multi-megabyte scratch buffer in the pool for the
// life of the process. Buffers grown past the cap are dropped to the GC.
const maxPooledBufCap = 1 << 20

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBufCap {
		return
	}
	bufPool.Put(buf)
}

// docHandle addresses one write-once pre-encoded response document inside
// a snapshot's arena set. It replaces the former pointer-per-document
// cachedDoc (body/etag/gzip slices and strings, ~6 GC-traced objects per
// document): the handle is 12 bytes of plain integers, so a block of them
// is invisible to the collector's mark phase.
//
// The addressed region is laid out contiguously in the arena —
//
//	[etag][clen][gzEtag][gzClen][gzBody]
//
// — identity ETag and pre-rendered Content-Length first, then the gzip
// pair and the gzip body. No document keeps its identity bytes: the serve
// path re-encodes them from the snapshot's rows on every identity 200 (a
// few hundred nanoseconds for a detail row, a few microseconds for a long
// comment stream). Only a gzip body, the one representation that is costly
// to rebuild, is kept: when gzipx.CompressIfPays declines one (every
// detail row, short comment streams, stats) the region is the identity
// validators alone. One region per document means one bump allocation per
// fill and lets compaction move a document with a single copy.
//
// word is the single-flight fill protocol and the region's shape in one
// atomic: the state (0 empty, 1 filling, 2 filled) and, once filled, the
// arena slot and the validators' lengths (packWord). base and gzLen are
// written exactly once, before the release-store of the filled word, and
// never mutated after — readers acquire-load the word and may then read
// them without synchronization.
type docHandle struct {
	word  uint32 // atomic
	base  uint32 // packed arena offset of the region
	gzLen uint32 // 0 when the document has no gzip representation
}

const (
	docEmpty uint32 = iota
	docFilling
	docFilled
)

var _ [0]struct{} = [64 - maxArenas]struct{}{} // an arena slot must fit in six bits

// packWord is the filled word of a region in arena slot idx, low bits
// first: state 2, slot 6, ETag length 8, and the digit counts of the
// identity and gzip Content-Lengths, 4 each. Every ETag docETag mints is
// under 64 bytes, and a length under 4 GiB has at most ten digits.
func packWord(idx uint32, etagLen, clenLen, gzClenLen int) uint32 {
	return docFilled | idx<<2 | uint32(etagLen)<<8 | uint32(clenLen)<<16 | uint32(gzClenLen)<<20
}

func (h docHandle) filled() bool      { return h.word&3 == docFilled }
func (h docHandle) arenaIdx() uint32  { return h.word >> 2 & 63 }
func (h docHandle) etagLen() uint32   { return h.word >> 8 & 255 }
func (h docHandle) clenLen() uint32   { return h.word >> 16 & 15 }
func (h docHandle) gzClenLen() uint32 { return h.word >> 20 & 15 }

// regionLen is the length of h's region. The gzip ETag, there with a gzip
// body, is the identity one plus "-gz": three bytes longer.
func (h docHandle) regionLen() uint32 {
	n := h.etagLen() + h.clenLen()
	if h.gzLen > 0 {
		n += h.etagLen() + 3 + h.gzClenLen() + h.gzLen
	}
	return n
}

// loadHandle snapshots e if (and only if) it is filled. The acquire-load
// of the word orders the plain reads of base and gzLen after the filler's
// writes; a whole-struct copy would read the word plainly, which races
// with a concurrent filler's CAS on the same handle (a loser's failed CAS
// carries no release edge).
func loadHandle(e *docHandle) (docHandle, bool) {
	w := atomic.LoadUint32(&e.word)
	if w&3 != docFilled {
		return docHandle{}, false
	}
	return docHandle{word: w, base: e.base, gzLen: e.gzLen}, true
}

// docView is the servable form of a filled document: strings and the gzip
// body aliasing the arena region (zero-copy views that keep the slab they
// point into alive), and the identity bytes once render gave it them.
type docView struct {
	// body is the identity bytes, encoded into a pooled buffer (buf, for
	// release) by the fill that filled the document or by render; nil
	// until then.
	body []byte
	buf  *bytes.Buffer
	etag string // identity ETag
	clen string // pre-rendered Content-Length of the identity bytes

	// The gzip representation. gzBody is nil when gzipx.CompressIfPays
	// declined one (stats, detail rows, short comment streams), in which
	// case the document has exactly one representation, identity. gzEtag
	// is the identity ETag with a "-gz" suffix inside the quotes:
	// per-encoding ETags so a cached 304 validator can only match the
	// representation it was minted for.
	gzBody []byte
	gzEtag string
	gzClen string
}

// viewDoc materializes the zero-copy view of a filled handle.
func viewDoc(tab []*arena.Arena, h docHandle) docView {
	reg := tab[h.arenaIdx()].Bytes(h.base, h.regionLen())
	p := h.etagLen()
	q := p + h.clenLen()
	v := docView{
		etag: arena.AsString(reg[:p]),
		clen: arena.AsString(reg[p:q]),
	}
	if h.gzLen > 0 {
		r := q + h.etagLen() + 3
		s := r + h.gzClenLen()
		v.gzEtag = arena.AsString(reg[q:r])
		v.gzClen = arena.AsString(reg[r:s])
		v.gzBody = reg[s:]
	}
	return v
}

// render gives d its identity bytes if it holds none, re-encoding
// document k/i of sn into a pooled buffer that release hands back.
func (sn *snapshot) render(d *docView, k docKind, i int) {
	if d.body != nil {
		return
	}
	d.buf = getBuf()
	d.buf.Write(sn.appendDoc(d.buf.AvailableBuffer(), k, i))
	d.body = d.buf.Bytes()
}

// release returns the pooled buffer d's bytes were encoded into, if any;
// d's body must not be read after it.
func (d *docView) release() {
	if d.buf != nil {
		putBuf(d.buf)
		d.buf, d.body = nil, nil
	}
}

// gzETag derives the gzip representation's ETag from the identity one:
// `"c1-7"` becomes `"c1-7-gz"`. Both are pure functions of
// the document content, so both survive day-roll carries unchanged.
func gzETag(etag string) string {
	if len(etag) < 2 || etag[len(etag)-1] != '"' {
		return etag + "-gz"
	}
	return etag[:len(etag)-1] + `-gz"`
}

// docChunk groups cache entries into fixed blocks, sized to match the
// export's chunking so a successor snapshot can adopt a whole block when
// the export says the corresponding chunk is untouched. A block's
// per-entry carry decisions travel as one uint64 bitmask, which requires
// the block size to be exactly 64 — as does the per-block arena mask.
const docChunk = marketsim.ExportChunk

var _ [0]struct{} = [docChunk - 64]struct{}{} // docChunk must be 64: keep masks are uint64

func numDocChunks(n int) int { return (n + docChunk - 1) / docChunk }

// docBlock is one docChunk-entry run of handles. Apart from the two
// atomics it is pure integers: a million-document cache is ~16k such
// blocks and nothing else, so the mark phase traces ~16k noscan objects
// instead of ~6M pointers.
//
// filled counts filled entries and amask accumulates the arena slots
// those entries reference; together they tell a successor whether the
// block is immutable (filled == docChunk) and which arenas sharing it
// would pin. Fill order is: write base and gzLen, OR amask, add filled,
// release-store the packed word — so any observer that sees filled ==
// docChunk is guaranteed a complete amask (load filled before amask).
type docBlock struct {
	filled atomic.Int32
	amask  atomic.Uint64
	docs   [docChunk]docHandle
}

func orMask(p *atomic.Uint64, bits uint64) {
	for {
		old := p.Load()
		if old&bits == bits || p.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// respCache is a fixed-size, index-addressed set of lazily built response
// documents — one per app detail, per comment stream. Blocks are
// materialized on first touch (an atomic.Pointer CAS), so a cache over a
// million apps that only ever serves a few hot documents allocates a few
// blocks, not a million handles.
//
// A block whose span the export reports untouched can be shared with the
// successor snapshot wholesale — but only once it is fully filled: a
// shared block keeps filling in place, and a partially filled shared
// block would let one snapshot write arena indices that are meaningless
// in the other's arena table. Partially filled unchanged blocks are
// instead carried entry by entry (see carryCtx.cache).
type respCache struct {
	n      int
	blocks []atomic.Pointer[docBlock] // block c spans entries [c*docChunk, min((c+1)*docChunk, n))
}

// newRespCache returns an all-fresh, all-lazy cache of n documents.
func newRespCache(n int) respCache {
	return respCache{n: n, blocks: make([]atomic.Pointer[docBlock], numDocChunks(n))}
}

// keepAll is the keep mask reporting every entry of a block unchanged.
const keepAll = ^uint64(0)

func (c *respCache) block(ci int) *docBlock {
	if blk := c.blocks[ci].Load(); blk != nil {
		return blk
	}
	nb := new(docBlock)
	if c.blocks[ci].CompareAndSwap(nil, nb) {
		return nb
	}
	return c.blocks[ci].Load()
}

// docAt returns a copy of entry i's handle — the zero handle when the
// entry (or its block) has not been filled. Handles are comparable, so
// tests can assert carry identity by value: a carried document has the
// same (arenaIdx, base, lengths) in both snapshots.
func (c *respCache) docAt(i int) docHandle {
	blk := c.blocks[i/docChunk].Load()
	if blk == nil {
		return docHandle{}
	}
	h, _ := loadHandle(&blk.docs[i%docChunk])
	return h
}

// get returns document i of kind k, encoding it (and compressing it, if
// that pays) on first use. Callers must bounds-check i against the
// snapshot before calling, and release the view once its body is written.
func (c *respCache) get(sn *snapshot, k docKind, i int) docView {
	blk := c.block(i / docChunk)
	e := &blk.docs[i%docChunk]
	if h, ok := loadHandle(e); ok {
		return viewDoc(sn.arenas, h)
	}
	return c.fillDoc(sn, blk, e, k, i)
}

// fillDoc encodes the document on first use, single-flight: the CAS
// winner encodes it, tries gzip, and bump-allocates one arena region for
// what the document keeps; losers wait for the release-store of the
// filled word. The ETag must be a pure function of the document's content
// (not of which snapshot is serving it), because a carried-forward
// document keeps the ETag its first snapshot computed — and its identity
// bytes are re-encoded by whichever snapshot serves it.
func (c *respCache) fillDoc(sn *snapshot, blk *docBlock, e *docHandle, k docKind, i int) docView {
	if !atomic.CompareAndSwapUint32(&e.word, docEmpty, docFilling) {
		// Lost the single-flight race: spin-wait for the winner. Fills
		// are short (one encode, at most one gzip) and happen at most once
		// per document content-version, so waiting beats parking machinery.
		for spins := 0; ; spins++ {
			if h, ok := loadHandle(e); ok {
				return viewDoc(sn.arenas, h)
			}
			if spins < 128 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	buf := getBuf()
	buf.Write(sn.appendDoc(buf.AvailableBuffer(), k, i))
	body := buf.Bytes()
	etag := sn.docETag(k, i)
	var clen [20]byte
	clenB := strconv.AppendInt(clen[:0], int64(len(body)), 10)

	var gz []byte
	var gzEtag string
	var gzClen [20]byte
	var gzClenB []byte
	if z := gzipx.CompressIfPays(body); z != nil {
		gz = z
		gzEtag = gzETag(etag)
		gzClenB = strconv.AppendInt(gzClen[:0], int64(len(z)), 10)
	}

	total := len(etag) + len(clenB) + len(gzEtag) + len(gzClenB) + len(gz)
	off, dst := sn.fresh.Alloc(total)
	w := copy(dst, etag)
	w += copy(dst[w:], clenB)
	w += copy(dst[w:], gzEtag)
	w += copy(dst[w:], gzClenB)
	copy(dst[w:], gz)

	e.base = off
	e.gzLen = uint32(len(gz))
	word := packWord(sn.freshIdx, len(etag), len(clenB), len(gzClenB))
	orMask(&blk.amask, 1<<uint64(sn.freshIdx))
	blk.filled.Add(1)
	atomic.StoreUint32(&e.word, word)
	// The fill serves the bytes it just encoded.
	v := viewDoc(sn.arenas, docHandle{word: word, base: off, gzLen: uint32(len(gz))})
	v.body, v.buf = body, buf
	return v
}

// carryCtx threads one snapshot build's carry bookkeeping: which arena
// slots are being compacted away, which slots the carried documents ended
// up referencing (so unreferenced arenas can be unpinned), and the exact
// live-byte drops for every predecessor document that did not survive.
type carryCtx struct {
	prev    *snapshot
	sn      *snapshot
	compact uint64 // arena slots being evacuated this build
	used    uint64 // arena slots the new snapshot's documents reference
	moved   int64  // documents byte-copied out of compacting arenas
}

// drop records that prev document h does not survive into the new
// snapshot: its region's bytes stop being live in their arena.
func (cc *carryCtx) drop(h *docHandle) {
	cc.prev.arenas[h.arenaIdx()].DropBytes(int64(h.regionLen()))
}

// dropAll accounts an entire predecessor cache as not carried.
func (cc *carryCtx) dropAll(prev *respCache) {
	for ci := range prev.blocks {
		pb := prev.blocks[ci].Load()
		if pb == nil {
			continue
		}
		span := prev.n - ci*docChunk
		if span > docChunk {
			span = docChunk
		}
		for j := 0; j < span; j++ {
			if h, ok := loadHandle(&pb.docs[j]); ok {
				cc.drop(&h)
			}
		}
	}
}

// move evacuates one document out of a compacting arena: a single byte
// copy of the already-encoded region into the build's fresh arena. The
// bytes — validators and the gzip body, if the document kept one — are copied
// verbatim, never re-encoded or re-compressed, so carry semantics are
// intact.
func (cc *carryCtx) move(h docHandle) docHandle {
	src := cc.prev.arenas[h.arenaIdx()]
	reg := src.Bytes(h.base, h.regionLen())
	off, dst := cc.sn.fresh.Alloc(len(reg))
	copy(dst, reg)
	src.DropBytes(int64(len(reg)))
	h.word = packWord(cc.sn.freshIdx, int(h.etagLen()), int(h.clenLen()), int(h.gzClenLen()))
	h.base = off
	cc.moved++
	return h
}

// cache builds the successor of prevCache with n entries. A whole
// docChunk-entry block is shared with prev when sameChunk reports the
// spanned rows unchanged; within rebuilt blocks, entry
// c*docChunk+j (for j below prev's coverage) is carried when bit j of
// keepMask(c) reports its content unchanged, and starts empty otherwise.
// Returns the number of carried entries (old-accounting compatible: an
// unchanged entry counts as carried whether or not anyone ever encoded
// it — either way the successor will not re-encode what the predecessor
// already paid for).
func (cc *carryCtx) cache(n int, prevCache *respCache, sameChunk func(c int) bool, keepMask func(c int) uint64) (respCache, int) {
	out := newRespCache(n)
	carried := 0
	nc := numDocChunks(n)
	pn := prevCache.n
	pnc := numDocChunks(pn)
	for ch := 0; ch < nc; ch++ {
		lo := ch * docChunk
		hi := lo + docChunk
		if hi > n {
			hi = n
		}
		span := hi - lo
		var pb *docBlock
		if ch < pnc {
			pb = prevCache.blocks[ch].Load()
		}

		// The keep mask over this block's entries. A full unchanged block
		// (the common case at low churn) keeps everything; otherwise ask
		// the caller per entry. Bits past prev's coverage or past n are
		// cleared — those entries have no predecessor document or no
		// successor slot.
		whole := span == docChunk && hi <= pn && sameChunk(ch)
		mask := keepAll
		if !whole {
			mask = keepMask(ch)
		}
		if kept := pn - lo; kept < span {
			if kept <= 0 {
				mask = 0
			} else {
				mask &= 1<<uint(kept) - 1
			}
		}
		if span < docChunk {
			mask &= 1<<uint(span) - 1
		}
		carried += bits.OnesCount64(mask)

		if pb == nil {
			// Nothing was ever encoded in prev's block (or prev has no
			// such block): the successor block stays lazy. Entries the
			// mask kept carry "for free" — there is nothing to re-encode.
			continue
		}

		if whole {
			// Share the block object itself when it is immutable: fully
			// filled (no in-place fills left that would write
			// this-snapshot arena indices into a shared block) and not
			// referencing an arena this build evacuates. filled is loaded
			// before amask so a complete count guarantees a complete mask.
			if int(pb.filled.Load()) == docChunk {
				if m := pb.amask.Load(); m&cc.compact == 0 {
					out.blocks[ch].Store(pb)
					cc.used |= m
					continue
				}
			}
		}

		// Entry-by-entry: copy kept filled handles into a private block
		// (evacuating any that live in compacting arenas), and account
		// the drop of every predecessor document that is not kept.
		pspan := pn - lo
		if pspan > docChunk {
			pspan = docChunk
		}
		var nb *docBlock
		var count int32
		var amask uint64
		for j := 0; j < pspan; j++ {
			h, ok := loadHandle(&pb.docs[j])
			if !ok {
				// Never filled (or a fill is mid-flight in the live
				// predecessor): nothing to carry — the successor
				// re-encodes on demand, same bytes, same ETag.
				continue
			}
			if mask&(1<<uint(j)) == 0 {
				cc.drop(&h)
				continue
			}
			if cc.compact&(1<<uint64(h.arenaIdx())) != 0 {
				h = cc.move(h)
			}
			if nb == nil {
				nb = new(docBlock)
			}
			nb.docs[j] = h
			count++
			amask |= 1 << uint64(h.arenaIdx())
		}
		if nb != nil {
			nb.filled.Store(count)
			nb.amask.Store(amask)
			cc.used |= amask
			out.blocks[ch].Store(nb)
		}
	}

	// Blocks beyond the new size (catalog shrink): everything encoded
	// there is dropped.
	for ch := nc; ch < pnc; ch++ {
		pb := prevCache.blocks[ch].Load()
		if pb == nil {
			continue
		}
		span := pn - ch*docChunk
		if span > docChunk {
			span = docChunk
		}
		for j := 0; j < span; j++ {
			if h, ok := loadHandle(&pb.docs[j]); ok {
				cc.drop(&h)
			}
		}
	}
	return out, carried
}

// encodeJSON writes v to buf, panicking on failure: every document the
// server serves is a static struct that cannot fail to encode, so an error
// here is a programming bug, not a runtime condition.
func encodeJSON(buf *bytes.Buffer, v any) {
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		panic(err)
	}
}
