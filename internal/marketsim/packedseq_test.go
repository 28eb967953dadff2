package marketsim

import (
	"encoding/binary"
	"math"
	"testing"

	"planetapps/internal/rng"
)

func checkRoundTrip(t *testing.T, vals []int32, bound int) {
	t.Helper()
	p := packSeq(vals, bound)
	if want := (len(vals)*int(p.width) + 63) / 64; p.len() != len(vals) || len(p.words) != want {
		t.Fatalf("bound %d: %d values in %d words, want %d values in %d words of %d-bit values",
			bound, p.len(), len(p.words), len(vals), want, p.width)
	}
	if bound > 1<<p.width || (p.width > 1 && bound <= 1<<(p.width-1)) {
		t.Fatalf("bound %d packed at %d bits", bound, p.width)
	}
	for k, v := range vals {
		if got := p.at(k); got != v {
			t.Fatalf("bound %d: value %d reads back %d, packed %d", bound, k, got, v)
		}
	}
}

// TestPackedSeqRoundTrips packs random values, and the two extremes, at
// bounds on both sides of a power of two. A run of 200 values crosses a
// word boundary mid-value at every width that does not divide 64.
func TestPackedSeqRoundTrips(t *testing.T) {
	bounds := []int{1, 2, 3, math.MaxInt32}
	for _, k := range []uint{8, 16, 17, 30} {
		bounds = append(bounds, 1<<k-1, 1<<k, 1<<k+1)
	}
	r := rng.New(7)
	for _, bound := range bounds {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(r.Intn(bound))
			}
			checkRoundTrip(t, vals, bound)
			for i := range vals {
				vals[i] = int32(bound-1) * int32(i&1) // all ones beside all zeros
			}
			checkRoundTrip(t, vals, bound)
		}
	}
}

// FuzzPackedSeq: any values below any bound read back as packed.
func FuzzPackedSeq(f *testing.F) {
	f.Add(uint32(100_000), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint32(1), []byte{0, 0, 0, 0})
	f.Add(uint32(math.MaxInt32), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, bound uint32, raw []byte) {
		if bound == 0 || bound > math.MaxInt32 {
			t.Skip()
		}
		vals := make([]int32, len(raw)/4)
		for i := range vals {
			vals[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]) % bound)
		}
		checkRoundTrip(t, vals, int(bound))
	})
}
