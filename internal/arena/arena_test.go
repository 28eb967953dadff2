package arena

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestAllocRoundTrip(t *testing.T) {
	p := NewPool(4)
	a := New(p)
	type rec struct {
		off uint32
		n   uint32
		val []byte
	}
	var recs []rec
	var total int64
	for i := 0; i < 1000; i++ {
		val := []byte(fmt.Sprintf("doc-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%300)))
		off, dst := a.Alloc(len(val))
		if len(dst) != len(val) {
			t.Fatalf("Alloc(%d) returned %d bytes", len(val), len(dst))
		}
		copy(dst, val)
		total += int64(len(val))
		recs = append(recs, rec{off, uint32(len(val)), val})
	}
	for _, r := range recs {
		if got := a.Bytes(r.off, r.n); !bytes.Equal(got, r.val) {
			t.Fatalf("Bytes(%d,%d) mismatch", r.off, r.n)
		}
		if got := a.String(r.off, r.n); got != string(r.val) {
			t.Fatalf("String(%d,%d) mismatch", r.off, r.n)
		}
	}
	if a.LiveBytes() != total {
		t.Fatalf("allocated %d != live %d before any drop", total, a.LiveBytes())
	}
}

func TestAllocCrossesSlabs(t *testing.T) {
	a := New(NewPool(2))
	// Regions never straddle a slab boundary: a request that does not
	// fit the tail opens a fresh slab.
	big := SlabSize - 10
	off1, _ := a.Alloc(big)
	off2, b2 := a.Alloc(100)
	if off1>>SlabShift == off2>>SlabShift {
		t.Fatalf("second alloc should be in a new slab: off1=%#x off2=%#x", off1, off2)
	}
	if off2&slabMask != 0 {
		t.Fatalf("fresh slab should start at offset 0, got %d", off2&slabMask)
	}
	copy(b2, bytes.Repeat([]byte{7}, 100))
	if a.Slabs() != 2 {
		t.Fatalf("Slabs = %d, want 2", a.Slabs())
	}
}

func TestOversizeAlloc(t *testing.T) {
	p := NewPool(4)
	a := New(p)
	n := SlabSize + 12345
	off, dst := a.Alloc(n)
	if len(dst) != n {
		t.Fatalf("oversize Alloc returned %d bytes, want %d", len(dst), n)
	}
	dst[0], dst[n-1] = 0xAB, 0xCD
	got := a.Bytes(off, uint32(n))
	if got[0] != 0xAB || got[n-1] != 0xCD {
		t.Fatal("oversize round trip failed")
	}
	// A small alloc after an oversize one still works.
	off2, b := a.Alloc(8)
	copy(b, "12345678")
	if a.String(off2, 8) != "12345678" {
		t.Fatal("small alloc after oversize failed")
	}
	// Oversize slabs are not pooled on release.
	a.Release()
	if st := p.Stats(); st.SlabsPooled != 1 {
		// only the standard slab (from the small alloc) parks
		t.Fatalf("pooled = %d, want 1 (oversize slab must not pool)", st.SlabsPooled)
	}
}

func TestZeroAlloc(t *testing.T) {
	a := New(NewPool(1))
	if off, b := a.Alloc(0); off != 0 || b != nil {
		t.Fatalf("Alloc(0) = (%d, %v), want (0, nil)", off, b)
	}
}

func TestRefcountRecycling(t *testing.T) {
	p := NewPool(8)
	a := New(p)
	for i := 0; i < 3; i++ {
		_, b := a.Alloc(SlabSize / 2)
		copy(b, "x")
	}
	if st := p.Stats(); st.SlabsLive != 2 || st.ArenasLive != 1 || st.LiveBytes != 3*SlabSize/2 {
		t.Fatalf("live stats: %+v", st)
	}
	a.DropBytes(SlabSize / 2)
	if st := p.Stats(); st.LiveBytes != SlabSize || a.LiveBytes() != SlabSize || a.PinnedBytes() != 2*SlabSize {
		t.Fatalf("after drop: pool %+v, arena live %d pinned %d", st, a.LiveBytes(), a.PinnedBytes())
	}
	a.Retain() // a second snapshot carries docs from this arena
	a.Release()
	if st := p.Stats(); st.SlabsLive != 2 || st.SlabsPooled != 0 {
		t.Fatalf("slabs recycled while still referenced: %+v", st)
	}
	a.Release() // last reference
	st := p.Stats()
	if st.SlabsLive != 0 || st.SlabsPooled != 2 || st.ArenasLive != 0 || st.LiveBytes != 0 {
		t.Fatalf("after final release: %+v", st)
	}

	// The next arena draws from the pool instead of the heap.
	b := New(p)
	b.Alloc(100)
	if st := p.Stats(); st.SlabsReused != 1 {
		t.Fatalf("expected pooled slab reuse, got %+v", st)
	}
	b.Release()
}

func TestPoolRetentionCap(t *testing.T) {
	p := NewPool(1)
	a := New(p)
	a.Alloc(SlabSize)
	a.Alloc(SlabSize)
	a.Alloc(SlabSize)
	a.Release()
	if st := p.Stats(); st.SlabsPooled != 1 {
		t.Fatalf("pool should retain at most 1 slab, got %+v", st)
	}
	if st := p.Stats(); st.SlabsLive != 0 {
		t.Fatalf("dropped slabs still counted live: %+v", st)
	}
}

func TestDropBytesAccounting(t *testing.T) {
	a := New(NewPool(1))
	a.Alloc(1000)
	a.Alloc(500)
	a.DropBytes(1000)
	if a.LiveBytes() != 500 {
		t.Fatalf("live=%d after dropping 1000 of 1500", a.LiveBytes())
	}
}

func TestConcurrentAllocAndRead(t *testing.T) {
	// Readers resolve offsets while a writer keeps appending slabs: the
	// copy-on-append table must make that race-free (run with -race).
	a := New(NewPool(4))
	off0, b := a.Alloc(16)
	copy(b, "0123456789abcdef")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := a.String(off0, 16); s != "0123456789abcdef" {
					t.Error("reader saw torn data")
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		_, b := a.Alloc(4096)
		b[0] = byte(i)
	}
	close(stop)
	wg.Wait()
	a.Release()
}
