package storeserver

import (
	"bytes"
	"strconv"
	"testing"

	"planetapps/internal/arena"
)

// shellSnapshot fabricates the minimal snapshot a respCache needs: an
// arena table with one fresh arena. It lets the carry boundary tests
// drive carryCtx.cache directly with hand-picked sizes and masks instead
// of hoping a simulated market hits the geometry.
func shellSnapshot(pool *arena.Pool) *snapshot {
	sn := &snapshot{}
	sn.fresh = arena.New(pool)
	sn.arenas = []*arena.Arena{sn.fresh}
	sn.freshIdx = 0
	return sn
}

// fillRange force-encodes entries [0, k) of c with deterministic bodies.
func fillRange(sn *snapshot, c *respCache, k int) {
	for i := 0; i < k; i++ {
		i := i
		c.get(sn, i, func(buf *bytes.Buffer) string {
			buf.WriteString(`{"doc":` + strconv.Itoa(i) + `}`)
			return `"e` + strconv.Itoa(i) + `"`
		})
	}
}

// successor builds the carry of prev's cache into a new shell snapshot.
func successor(pool *arena.Pool, prev *snapshot, prevCache *respCache, n int, sameChunk func(int) bool, keepMask func(int) uint64) (*snapshot, respCache, int) {
	sn := shellSnapshot(pool)
	// Mirror planArenas for the shell: the successor sees prev's arenas
	// plus its own fresh one in a new slot.
	sn.arenas = append(append([]*arena.Arena(nil), prev.arenas...), sn.fresh)
	sn.freshIdx = uint32(len(sn.arenas) - 1)
	cc := &carryCtx{prev: prev, sn: sn}
	out, carried := cc.cache(n, prevCache, sameChunk, keepMask)
	for idx, a := range sn.arenas {
		if a == nil || uint32(idx) == sn.freshIdx {
			continue
		}
		if cc.used&(1<<uint(idx)) != 0 {
			a.Retain()
		} else {
			sn.arenas[idx] = nil
		}
	}
	return sn, out, carried
}

// TestCarryShrink: the catalog shrinking below the previous size must
// drop the out-of-range documents (and their arena bytes) while still
// carrying the surviving prefix.
func TestCarryShrink(t *testing.T) {
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(200) // 4 blocks: 64+64+64+8
	prev.detail = pc
	fillRange(prev, &pc, 200)
	liveBefore := prev.fresh.LiveBytes()

	sn, out, carried := successor(pool, prev, &pc, 100,
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
		got := out.get(sn, i, func(*bytes.Buffer) string { t.Fatalf("entry %d re-encoded", i); return "" })
		if want := `{"doc":` + strconv.Itoa(i) + `}`; string(got.body) != want {
			t.Fatalf("entry %d: body %q, want %q", i, got.body, want)
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
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(70) // blocks: 64 + 6-entry tail
	prev.detail = pc
	fillRange(prev, &pc, 70)

	// Grow 70 -> 90: same block count, the tail block now spans 26 rows.
	sn, out, carried := successor(pool, prev, &pc, 90,
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
		i := i
		v := out.get(sn, i, func(buf *bytes.Buffer) string {
			encoded++
			buf.WriteString(`{"new":` + strconv.Itoa(i) + `}`)
			return `"n` + strconv.Itoa(i) + `"`
		})
		if want := `{"new":` + strconv.Itoa(i) + `}`; string(v.body) != want {
			t.Fatalf("grown entry %d: body %q", i, v.body)
		}
	}
	if encoded != 20 {
		t.Fatalf("encoded %d grown entries, want 20", encoded)
	}
}

// TestCarryKeptNonPositive: blocks lying entirely beyond prev's coverage
// (kept <= 0) must ignore the caller's keep mask outright — keepAll over
// a span with no predecessors carries nothing and crashes nothing.
func TestCarryKeptNonPositive(t *testing.T) {
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(64) // exactly one full block
	prev.detail = pc
	fillRange(prev, &pc, 64)

	// Grow to 200: blocks 1..3 lie wholly beyond prev (kept <= 0 there).
	sn, out, carried := successor(pool, prev, &pc, 200,
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
	v := out.get(sn, 199, func(buf *bytes.Buffer) string {
		buf.WriteString(`{}`)
		return `"x"`
	})
	if v.etag != `"x"` {
		t.Fatalf("fresh tail entry etag %q", v.etag)
	}
}

// TestCarryChangedEntriesDropBytes: a keep mask excluding entries must
// both re-encode them and subtract their bytes from the arena's live
// accounting (the signal compaction keys off).
func TestCarryChangedEntriesDropBytes(t *testing.T) {
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(64)
	prev.detail = pc
	fillRange(prev, &pc, 64)
	liveBefore := prev.fresh.LiveBytes()

	// Keep only even entries.
	var evens uint64
	for j := 0; j < 64; j += 2 {
		evens |= 1 << uint(j)
	}
	_, out, carried := successor(pool, prev, &pc, 64,
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
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(256)
	prev.detail = pc
	fillRange(prev, &pc, 10) // only block 0 materializes

	_, out, carried := successor(pool, prev, &pc, 256,
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
	pool := arena.NewPool(4)
	prev := shellSnapshot(pool)
	pc := newRespCache(128)
	prev.detail = pc
	fillRange(prev, &pc, 128)

	_, out, _ := successor(pool, prev, &pc, 128,
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
