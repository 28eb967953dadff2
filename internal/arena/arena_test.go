package arena

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAllocRoundTrip(t *testing.T) {
	a := New(new(atomic.Int64))
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
	a := New(new(atomic.Int64))
	// Regions never straddle a slab boundary: a request that does not
	// fit the tail opens a fresh slab, the next step of the ramp.
	big := FirstSlabSize - 10
	off1, _ := a.Alloc(big)
	off2, b2 := a.Alloc(100)
	if off1>>SlabShift == off2>>SlabShift {
		t.Fatalf("second alloc should be in a new slab: off1=%#x off2=%#x", off1, off2)
	}
	if off2&slabMask != 0 {
		t.Fatalf("fresh slab should start at offset 0, got %d", off2&slabMask)
	}
	copy(b2, bytes.Repeat([]byte{7}, 100))
	if a.Slabs() != 2 || a.PinnedBytes() != 3*FirstSlabSize {
		t.Fatalf("Slabs = %d pinning %d bytes, want 2 pinning %d (16 KiB, then 32 KiB)", a.Slabs(), a.PinnedBytes(), 3*FirstSlabSize)
	}
}

func TestOversizeAlloc(t *testing.T) {
	var made atomic.Int64
	a := New(&made)
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
	// The oversize document got a slab of its own and the small one the
	// ramp's first standard slab after it: two slabs made, both counted.
	if a.Slabs() != 2 || made.Load() != 2 {
		t.Fatalf("slabs = %d, made = %d, want 2 and 2", a.Slabs(), made.Load())
	}
	if want := int64(n + FirstSlabSize); a.PinnedBytes() != want {
		t.Fatalf("PinnedBytes = %d, want %d (the oversize slab and a first slab)", a.PinnedBytes(), want)
	}
}

// slabLens returns the lengths of a's slabs, in order, and their sum.
func slabLens(a *Arena) ([]int, int64) {
	var lens []int
	var sum int64
	for _, s := range *a.slabs.Load() {
		lens = append(lens, len(s))
		sum += int64(len(s))
	}
	return lens, sum
}

// TestSlabGrowth holds the ramp: standard slabs double from FirstSlabSize to
// SlabSize and stay there, a region bigger than the next step gets the
// smallest power of two that holds it (the ramp going on from there),
// PinnedBytes is what the slabs add up to, and every region reads back
// through its offset whatever slab it landed in.
func TestSlabGrowth(t *testing.T) {
	type rec struct {
		off uint32
		val []byte
	}
	fill := func(a *Arena, recs []rec, n int) []rec {
		off, dst := a.Alloc(n)
		for i := range dst {
			dst[i] = byte(len(recs) + i)
		}
		return append(recs, rec{off, dst})
	}
	check := func(name string, a *Arena, recs []rec, want []int) {
		t.Helper()
		lens, sum := slabLens(a)
		if fmt.Sprint(lens) != fmt.Sprint(want) {
			t.Fatalf("%s: slab lengths %v, want %v", name, lens, want)
		}
		if a.PinnedBytes() != sum {
			t.Fatalf("%s: PinnedBytes = %d, slabs add up to %d", name, a.PinnedBytes(), sum)
		}
		for i, r := range recs {
			if got := a.Bytes(r.off, uint32(len(r.val))); !bytes.Equal(got, r.val) {
				t.Fatalf("%s: region %d at %#x does not read back", name, i, r.off)
			}
		}
	}

	// Small regions walk the whole ramp and two slabs past its top.
	a := New(new(atomic.Int64))
	var recs []rec
	for a.Slabs() < 8 {
		recs = fill(a, recs, 1000+len(recs)%97)
	}
	check("ramp", a, recs, []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, SlabSize, SlabSize})

	// 100 KiB does not fit a 16 KiB slab's tail, nor the 32 KiB step: it
	// opens a 128 KiB slab, and the next slab steps on to 256 KiB.
	a, recs = New(new(atomic.Int64)), nil
	recs = fill(a, recs, 100)
	recs = fill(a, recs, 100<<10)
	recs = fill(a, recs, 60<<10)
	check("jump", a, recs, []int{16 << 10, 128 << 10, 256 << 10})

	// A region of exactly SlabSize is standard, one past it oversize.
	a, recs = New(new(atomic.Int64)), nil
	recs = fill(a, recs, SlabSize)
	recs = fill(a, recs, SlabSize+1)
	recs = fill(a, recs, 1)
	check("top", a, recs, []int{SlabSize, SlabSize + 1, SlabSize})
}

func TestZeroAlloc(t *testing.T) {
	a := New(new(atomic.Int64))
	if off, b := a.Alloc(0); off != 0 || b != nil {
		t.Fatalf("Alloc(0) = (%d, %v), want (0, nil)", off, b)
	}
}

func TestDropBytesAccounting(t *testing.T) {
	a := New(new(atomic.Int64))
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
	a := New(new(atomic.Int64))
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
}
