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
// a flat array of atomics.
const subBits = 5

const subCount = 1 << subBits

// numBuckets covers every non-negative int64 (nanosecond durations up to
// ~292 years).
var numBuckets = bucketIndex(math.MaxInt64) + 1

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
// single atomic add into a fixed bucket array plus sum/count/extrema
// updates; quantiles are extracted from a point-in-time snapshot. The zero
// value is NOT ready to use — construct with NewHistogram.
type Histogram struct {
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Int64, numBuckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
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

// Snapshot captures a point-in-time view for quantile extraction. The
// snapshot is internally consistent enough for reporting: buckets are read
// individually, so counts racing with concurrent Observes may be off by the
// in-flight handful, never corrupted.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Sum:     h.sum.Load(),
		Min:     h.min.Load(),
		Max:     h.max.Load(),
		buckets: make([]int64, len(h.buckets)),
	}
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.buckets[i] = c
		total += c
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

	buckets []int64
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
	for i, c := range s.buckets {
		cum += c
		if cum >= target {
			v := bucketMid(i)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
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
