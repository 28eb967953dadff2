package storeserver

import (
	"bytes"
	"sync/atomic"
	"testing"
	"unsafe"

	"planetapps/internal/arena"
	"planetapps/internal/marketsim"
)

// The three documents of a snapshot, filled on first use.
func (sn *snapshot) statsDoc() docView         { return sn.doc(docStats, 0) }
func (sn *snapshot) detailDoc(i int) docView   { return sn.doc(docDetail, i) }
func (sn *snapshot) commentsDoc(i int) docView { return sn.doc(docComments, i) }

// shellExport is the 256-app day-0 export shell snapshots render their
// detail documents from.
func shellExport(t *testing.T) *marketsim.Export {
	t.Helper()
	ex := lowChurnMarket(t, 256, 0).Export()
	if ex.NumApps() < 200 {
		t.Fatalf("shell export holds %d apps, the carry tests need 200", ex.NumApps())
	}
	return ex
}

// shellSnapshot fabricates the minimal snapshot a respCache needs: an
// export to render from and an arena table with one fresh arena. It lets
// the carry boundary tests drive carryCtx.cache directly with hand-picked
// sizes and masks instead of hoping a simulated market hits the geometry.
func shellSnapshot(ex *marketsim.Export) *snapshot {
	sn := &snapshot{ex: ex, n: ex.NumApps(), store: ex.Store(),
		catNames: ex.CategoryNames(), devNames: ex.DeveloperNames()}
	sn.fresh = arena.New(new(atomic.Int64))
	sn.arenas = []*arena.Arena{sn.fresh}
	sn.freshIdx = 0
	return sn
}

// fillRange force-encodes detail entries [0, k) of c.
func fillRange(sn *snapshot, c *respCache, k int) {
	for i := 0; i < k; i++ {
		d := c.get(sn, docDetail, i)
		d.release()
	}
}

// fillingGet gets entry i of c and reports whether the get filled it: a fill
// encodes the document and writes a new handle, a get of a filled entry
// leaves the handle as it was.
func fillingGet(sn *snapshot, c *respCache, i int) (v docView, filled bool) {
	h := c.docAt(i)
	v = c.get(sn, docDetail, i)
	return v, c.docAt(i) != h
}

// blockSizeClass is the Go size class a docBlock is allocated in: the
// bytes a block really costs the heap.
const blockSizeClass = 896

// TestHandleBlockFitsItsSizeClass: a handle is three words, so a block of
// 64 is 784 B and the allocator hands out 896 for it — where a 28-byte
// handle made a 1,808 B block that cost 2,048. A handle is aligned to four
// bytes, so one byte more would make it 16 and the block 1,040 B, in the
// 1,152 B class. The packed word must give back every field at its widest:
// arena slot 63, a 255-byte ETag, fifteen-digit lengths.
func TestHandleBlockFitsItsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(docHandle{}); sz > 12 {
		t.Fatalf("docHandle is %d B, want at most 12", sz)
	}
	if sz := unsafe.Sizeof(docBlock{}); sz > 784 {
		t.Fatalf("docBlock is %d B, want at most 784 (the %d B size class)", sz, blockSizeClass)
	}
	for _, c := range [][4]int{{0, 1, 1, 0}, {maxArenas - 1, 255, 15, 15}, {37, 20, 4, 3}} {
		h := docHandle{word: packWord(uint32(c[0]), c[1], c[2], c[3])}
		if got := [4]int{int(h.arenaIdx()), int(h.etagLen()), int(h.clenLen()), int(h.gzClenLen())}; !h.filled() || got != c {
			t.Fatalf("packWord%v reads back %v (filled %v)", c, got, h.filled())
		}
	}
}

// successor builds the carry of prev's cache into a new shell snapshot.
func successor(prev *snapshot, prevCache *respCache, n int, sameChunk func(int) bool, keepMask func(int) uint64) (*snapshot, respCache, int) {
	sn := shellSnapshot(prev.ex)
	// Mirror planArenas for the shell: the successor sees prev's arenas
	// plus its own fresh one in a new slot.
	sn.arenas = append(append([]*arena.Arena(nil), prev.arenas...), sn.fresh)
	sn.freshIdx = uint32(len(sn.arenas) - 1)
	cc := &carryCtx{prev: prev, sn: sn}
	out, carried := cc.cache(n, prevCache, sameChunk, keepMask)
	sn.keepCited(cc.used)
	return sn, out, carried
}

// TestCarryShrink: the catalog shrinking below the previous size must
// drop the out-of-range documents (and their arena bytes) while still
// carrying the surviving prefix.
func TestCarryShrink(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(200) // 4 blocks: 64+64+64+8
	prev.detail = pc
	fillRange(prev, &pc, 200)
	liveBefore := prev.fresh.LiveBytes()

	sn, out, carried := successor(prev, &pc, 100,
		func(int) bool { return true }, func(int) uint64 { return keepAll })
	if carried != 100 {
		t.Fatalf("carried = %d, want 100", carried)
	}
	if out.n != 100 || numDocChunks(100) != len(out.blocks) {
		t.Fatalf("shrunk cache shape: n=%d blocks=%d", out.n, len(out.blocks))
	}
	// Entries below the new size are carried by value.
	for i := 0; i < 100; i++ {
		if out.docAt(i) != pc.docAt(i) {
			t.Fatalf("entry %d not carried across shrink", i)
		}
		got, filled := fillingGet(sn, &out, i)
		if filled {
			t.Fatalf("entry %d re-encoded", i)
		}
		if want := sn.docETag(docDetail, i); got.etag != want {
			t.Fatalf("entry %d: etag %s, want %s", i, got.etag, want)
		}
	}
	// The 100 dropped documents' bytes must be accounted dead in prev's
	// arena: block 1's upper half (entries 100..127 of block 1? no —
	// entries 100..199 span blocks 1 (tail), 2, 3).
	if dropped := liveBefore - prev.fresh.LiveBytes(); dropped <= 0 {
		t.Fatalf("no live-byte drop recorded for %d discarded docs", 100)
	}
}

// TestCarryGrowthPartialTrailingBlock: growth into a partial trailing
// block — the old tail block gains rows. The old tail entries must carry
// (below prev coverage) and the grown tail must encode fresh.
func TestCarryGrowthPartialTrailingBlock(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(70) // blocks: 64 + 6-entry tail
	prev.detail = pc
	fillRange(prev, &pc, 70)

	// Grow 70 -> 90: same block count, the tail block now spans 26 rows.
	sn, out, carried := successor(prev, &pc, 90,
		func(int) bool { return true }, func(int) uint64 { return keepAll })
	if carried != 70 {
		t.Fatalf("carried = %d, want 70 (full prev coverage)", carried)
	}
	for i := 0; i < 70; i++ {
		if out.docAt(i) != pc.docAt(i) {
			t.Fatalf("entry %d not carried across growth", i)
		}
	}
	// Grown entries have no predecessor: empty handles, fresh encodes.
	for i := 70; i < 90; i++ {
		if out.docAt(i) != (docHandle{}) {
			t.Fatalf("grown entry %d should be empty before first request", i)
		}
	}
	encoded := 0
	for i := 70; i < 90; i++ {
		v, filled := fillingGet(sn, &out, i)
		if filled {
			encoded++
		}
		if want := sn.appendDoc(nil, docDetail, i); !bytes.Equal(v.body, want) {
			t.Fatalf("grown entry %d: the fill served %q, want %q", i, v.body, want)
		}
		v.release()
	}
	if encoded != 20 {
		t.Fatalf("encoded %d grown entries, want 20", encoded)
	}
}

// TestCarryKeptNonPositive: blocks lying entirely beyond prev's coverage
// (kept <= 0) must ignore the caller's keep mask outright — keepAll over
// a span with no predecessors carries nothing and crashes nothing.
func TestCarryKeptNonPositive(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(64) // exactly one full block
	prev.detail = pc
	fillRange(prev, &pc, 64)

	// Grow to 200: blocks 1..3 lie wholly beyond prev (kept <= 0 there).
	sn, out, carried := successor(prev, &pc, 200,
		func(int) bool { return false }, func(int) uint64 { return keepAll })
	if carried != 64 {
		t.Fatalf("carried = %d, want 64", carried)
	}
	for i := 64; i < 200; i++ {
		if out.docAt(i) != (docHandle{}) {
			t.Fatalf("entry %d carried from nonexistent predecessor", i)
		}
	}
	// And they fill independently.
	v := out.get(sn, docDetail, 199)
	v.release()
	if v.etag != sn.docETag(docDetail, 199) {
		t.Fatalf("fresh tail entry etag %q", v.etag)
	}
}

// TestCarryChangedEntriesDropBytes: a keep mask excluding entries must
// both re-encode them and subtract their bytes from the arena's live
// accounting (the signal compaction keys off).
func TestCarryChangedEntriesDropBytes(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(64)
	prev.detail = pc
	fillRange(prev, &pc, 64)
	liveBefore := prev.fresh.LiveBytes()

	// Keep only even entries.
	var evens uint64
	for j := 0; j < 64; j += 2 {
		evens |= 1 << uint(j)
	}
	_, out, carried := successor(prev, &pc, 64,
		func(int) bool { return false }, func(int) uint64 { return evens })
	if carried != 32 {
		t.Fatalf("carried = %d, want 32", carried)
	}
	for i := 0; i < 64; i++ {
		if i%2 == 0 && out.docAt(i) == (docHandle{}) {
			t.Fatalf("kept entry %d empty", i)
		}
		if i%2 == 1 && out.docAt(i) != (docHandle{}) {
			t.Fatalf("dropped entry %d still present", i)
		}
	}
	dropped := liveBefore - prev.fresh.LiveBytes()
	if dropped <= 0 || dropped >= liveBefore {
		t.Fatalf("drop accounting: %d of %d bytes", dropped, liveBefore)
	}
}

// TestCarryUnmaterializedBlocksStayLazy: blocks nobody ever requested
// must carry as nil — no handle blocks materialize during a roll for
// documents that were never served.
func TestCarryUnmaterializedBlocksStayLazy(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(256)
	prev.detail = pc
	fillRange(prev, &pc, 10) // only block 0 materializes

	_, out, carried := successor(prev, &pc, 256,
		func(int) bool { return true }, func(int) uint64 { return keepAll })
	if carried != 256 {
		t.Fatalf("carried = %d, want 256 (unchanged entries count filled or not)", carried)
	}
	for ci := 1; ci < len(out.blocks); ci++ {
		if out.blocks[ci].Load() != nil {
			t.Fatalf("block %d materialized despite no predecessor fills", ci)
		}
	}
	// Block 0 is partially filled, so it must be a private copy (shared
	// blocks would let one snapshot's fills write foreign arena indices),
	// but with identical handles for the filled prefix.
	if out.blocks[0].Load() == pc.blocks[0].Load() {
		t.Fatal("partially filled block shared between snapshots")
	}
	for i := 0; i < 10; i++ {
		if out.docAt(i) != pc.docAt(i) {
			t.Fatalf("entry %d handle not carried", i)
		}
	}
}

// TestCarrySharesFullyFilledBlocks: a fully filled unchanged block is
// adopted by reference — same docBlock object, zero per-entry work.
func TestCarrySharesFullyFilledBlocks(t *testing.T) {
	prev := shellSnapshot(shellExport(t))
	pc := newRespCache(128)
	prev.detail = pc
	fillRange(prev, &pc, 128)

	_, out, _ := successor(prev, &pc, 128,
		func(int) bool { return true }, func(int) uint64 { return keepAll })
	for ci := 0; ci < 2; ci++ {
		if out.blocks[ci].Load() != pc.blocks[ci].Load() {
			t.Fatalf("fully filled unchanged block %d not shared", ci)
		}
	}
}

// TestPutBufCap: the bufPool retention fix — a scratch buffer grown past
// the cap must not be re-pooled.
func TestPutBufCap(t *testing.T) {
	big := bytes.NewBuffer(make([]byte, 0, maxPooledBufCap+1))
	big.WriteString("x")
	putBuf(big)
	small := bytes.NewBuffer(make([]byte, 0, 64))
	putBuf(small)
	// Drain the pool: the oversized buffer must not come back out.
	for i := 0; i < 64; i++ {
		b := bufPool.Get().(*bytes.Buffer)
		if b.Cap() > maxPooledBufCap {
			t.Fatalf("oversized buffer (cap %d) re-pooled", b.Cap())
		}
	}
}
