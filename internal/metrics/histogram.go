package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the sub-bucket resolution of the histogram: each power-of-two
// range is split into 2^subBits log-spaced buckets, bounding the relative
// error of any recorded value (and hence any quantile estimate) at
// 1/2^subBits ≈ 3.1%. This is the HdrHistogram bucketing scheme reduced to
// blocks of atomic counters, one block per power-of-two range.
const subBits = 5

const subCount = 1 << subBits

// numBlocks is how many subCount-bucket blocks cover every non-negative
// int64 (nanosecond durations up to ~292 years): block k holds buckets
// [k*subCount, (k+1)*subCount), the values whose most significant bit sits
// at position k+subBits-1 (block 0: the exact unit buckets below subCount).
const numBlocks = 64 - subBits

// bucketBlock is the bucket counts of one power-of-two range.
type bucketBlock [subCount]atomic.Int64

// bucketIndex maps a non-negative value to its bucket. Values below
// subCount get exact unit buckets; above, the index is derived from the
// position of the most significant bit plus subBits of mantissa.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	msb := bits.Len64(u) - 1
	shift := uint(msb - subBits)
	sub := int((u >> shift) - subCount)
	return ((msb - subBits + 1) << subBits) + sub
}

// bucketMid returns a representative value (bucket midpoint) for an index,
// the inverse of bucketIndex up to bucket width.
func bucketMid(idx int) int64 {
	block := idx >> subBits
	if block == 0 {
		return int64(idx)
	}
	lo := int64(subCount+idx&(subCount-1)) << uint(block-1)
	width := int64(1) << uint(block-1)
	return lo + width/2
}

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// observations (by convention, latencies in nanoseconds). Observe is a
// single atomic add into a bucket plus sum/count/extrema updates;
// quantiles are extracted from a point-in-time snapshot. Buckets live in
// one block per power-of-two range, made on the first observation that
// lands in it: a latency histogram sees a handful of magnitudes, so it
// holds a few 256-byte blocks instead of all 1,888 buckets (15 KiB). The
// zero value is NOT ready to use — construct with NewHistogram.
type Histogram struct {
	blocks [numBlocks]atomic.Pointer[bucketBlock]
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// block returns block k, making it if no observation has yet. Racing
// first observations agree on one block through the CAS; a loser's
// block is garbage before anything counted into it.
func (h *Histogram) block(k int) *bucketBlock {
	if b := h.blocks[k].Load(); b != nil {
		return b
	}
	nb := new(bucketBlock)
	if h.blocks[k].CompareAndSwap(nil, nb) {
		return nb
	}
	return h.blocks[k].Load()
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.block(idx >> subBits)[idx&(subCount-1)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures a point-in-time view for quantile extraction, copying
// only the blocks that exist. The snapshot is internally consistent enough
// for reporting: buckets are read individually, so counts racing with
// concurrent Observes may be off by the in-flight handful, never
// corrupted.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Sum: h.sum.Load(),
		Min: h.min.Load(),
		Max: h.max.Load(),
	}
	var total int64
	for k := range h.blocks {
		b := h.blocks[k].Load()
		if b == nil {
			continue
		}
		sb := snapBlock{k: k}
		for j := range b {
			c := b[j].Load()
			sb.counts[j] = c
			total += c
		}
		s.blocks = append(s.blocks, sb)
	}
	// Derive Count from the bucket sum so quantile ranks are consistent
	// with the bucket contents even under concurrent writes.
	s.Count = total
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Quantile is shorthand for Snapshot().Quantile(q); prefer a single
// Snapshot when extracting several quantiles.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a frozen histogram state.
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64

	blocks []snapBlock // ascending k
}

// snapBlock is block k's counts as a snapshot read them.
type snapBlock struct {
	k      int
	counts [subCount]int64
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as a bucket-midpoint
// estimate clamped to the observed [Min, Max]. Returns 0 on an empty
// snapshot.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.blocks {
		for j, c := range b.counts {
			cum += c
			if cum >= target {
				return min(max(bucketMid(b.k<<subBits|j), s.Min), s.Max)
			}
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean, or 0 on an empty snapshot.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
