package dist

// maxGuideBuckets caps a guide at 256 KiB.
const maxGuideBuckets = 1 << 16

// newGuide returns the bucket guide of a cumulative table cum that ends at
// 1: with K buckets, the smallest power of two at least len(cum) up to
// maxGuideBuckets, guide[b] is the first index whose entry is at least b/K,
// for b in [0, K]. A draw u in [b/K, (b+1)/K) then has its index in
// [guide[b], guide[b+1]], a bracket of a rank or two wherever the table is
// dense in probability.
func newGuide(cum []float64) []int32 {
	k := 1
	for k < len(cum) && k < maxGuideBuckets {
		k <<= 1
	}
	guide := make([]int32, k+1)
	i := 0
	for b := range guide {
		t := float64(b) / float64(k)
		for i < len(cum) && cum[i] < t {
			i++
		}
		guide[b] = int32(i)
	}
	return guide
}

// search returns the first index of cum whose entry is at least u, or
// len(cum) if none is: sort.SearchFloat64s(cum, u), found by a binary
// search of the bracket guide gives u's bucket. The bracket is used only
// once the table confirms it — the entry before it below u, the entry at
// its end at least u — so the index is the unguided search's for any u and
// any guide.
func search(cum []float64, guide []int32, u float64) int {
	lo, hi := 0, len(cum)
	k := len(guide) - 1
	if b := int(u * float64(k)); b >= 0 && b < k {
		l, h := int(guide[b]), int(guide[b+1])
		if (l == 0 || cum[l-1] < u) && (h == len(cum) || cum[h] >= u) {
			lo, hi = l, h
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
