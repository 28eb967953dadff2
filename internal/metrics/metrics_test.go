package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	// Index must be monotone in the value and the representative value must
	// be within the bucket's relative error bound.
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		mid := bucketMid(idx)
		if v >= subCount {
			rel := math.Abs(float64(mid)-float64(v)) / float64(v)
			if rel > 1.0/subCount {
				t.Fatalf("bucketMid(%d)=%d for v=%d: relative error %.3f", idx, mid, v, rel)
			}
		} else if mid != v {
			t.Fatalf("unit bucket: mid(%d) = %d, want %d", idx, mid, v)
		}
	}
}

func TestHistogramQuantilesVsExactSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	h := NewHistogram()
	// Log-normal-ish latencies spanning microseconds to seconds.
	vals := make([]int64, 20000)
	for i := range vals {
		v := int64(math.Exp(r.NormFloat64()*1.5+13)) + 1 // centered ~0.44ms
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Min != vals[0] || s.Max != vals[len(vals)-1] {
		t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, vals[0], vals[len(vals)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := vals[rank]
		got := s.Quantile(q)
		rel := math.Abs(float64(got)-float64(exact)) / float64(exact)
		// One bucket of relative error (1/32) plus slack for rank ties.
		if rel > 0.10 {
			t.Errorf("q=%g: histogram %d vs exact %d (rel err %.3f)", q, got, exact, rel)
		}
	}
	wantMean := 0.0
	for _, v := range vals {
		wantMean += float64(v)
	}
	wantMean /= float64(len(vals))
	if got := s.Mean(); math.Abs(got-wantMean)/wantMean > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, wantMean)
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	h.Observe(-5) // clamped to 0
	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero quantile = %d", got)
	}
	h2 := NewHistogram()
	h2.Observe(int64(3 * time.Millisecond))
	if got := h2.Quantile(1); got != int64(3*time.Millisecond) {
		t.Fatalf("q=1 = %d", got)
	}
	if got := h2.Quantile(0); got != int64(3*time.Millisecond) {
		t.Fatalf("q=0 = %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 5000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for j := 0; j < per; j++ {
				h.Observe(int64(r.Intn(1_000_000)))
			}
		}(int64(i))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestRegistryGetOrCreateAndExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(`req_total{route="list"}`)
	if reg.Counter(`req_total{route="list"}`) != c {
		t.Fatal("counter not idempotent")
	}
	c.Add(3)
	reg.Counter(`req_total{route="detail"}`).Add(2)
	reg.Gauge("in_flight").Set(1)
	reg.Histogram(`latency_seconds{route="list"}`).Observe(int64(2 * time.Millisecond))

	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{route="list"} 3`,
		`req_total{route="detail"} 2`,
		"# TYPE in_flight gauge",
		"in_flight 1",
		"# TYPE latency_seconds summary",
		`latency_seconds{route="list",quantile="0.5"} `,
		`latency_seconds_sum{route="list"} `,
		`latency_seconds_count{route="list"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE header must appear exactly once per family.
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", out)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	reg.Gauge("x")
}

// denseHistogram is the reference Histogram is held to: every one of the
// 1,888 buckets allocated up front, counted and walked in order.
type denseHistogram struct {
	buckets              []int64
	count, sum, min, max int64
}

func newDenseHistogram() *denseHistogram {
	return &denseHistogram{buckets: make([]int64, bucketIndex(math.MaxInt64)+1), min: math.MaxInt64}
}

func (d *denseHistogram) observe(v int64) {
	v = max(v, 0)
	d.buckets[bucketIndex(v)]++
	d.count++
	d.sum += v
	d.min, d.max = min(d.min, v), max(d.max, v)
}

func (d *denseHistogram) quantile(q float64) int64 {
	switch {
	case d.count == 0:
		return 0
	case q <= 0:
		return d.min
	case q >= 1:
		return d.max
	}
	target := max(int64(math.Ceil(q*float64(d.count))), 1)
	var cum int64
	for i, c := range d.buckets {
		if cum += c; cum >= target {
			return min(max(bucketMid(i), d.min), d.max)
		}
	}
	return d.max
}

// TestHistogramMatchesDenseReference: blocks made on first observation
// give the count, sum, extrema and every quantile the dense bucket array
// gives, over seeded values from every corner — zero, the exact unit
// buckets below 32, values near MaxInt64 (the last block), negatives
// (clamped to zero) and a spread across every magnitude between.
func TestHistogramMatchesDenseReference(t *testing.T) {
	if got := bucketIndex(math.MaxInt64) >> subBits; got != numBlocks-1 {
		t.Fatalf("MaxInt64 lands in block %d of %d", got, numBlocks)
	}
	r := rand.New(rand.NewSource(11))
	sets := map[string][]int64{
		"empty": nil,
		"zero":  {0, 0, 0},
		"units": {0, 1, 2, 3, 17, 30, 31, 31},
		"top":   {math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1<<40, 1 << 62, 1<<62 + 1},
		"neg":   {-1, -5, math.MinInt64, 3, 40},
	}
	var spread []int64
	for i := 0; i < 5000; i++ {
		spread = append(spread, r.Int63()>>uint(r.Intn(63)))
	}
	sets["spread"] = spread
	qs := []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2}
	for name, vals := range sets {
		h, d := NewHistogram(), newDenseHistogram()
		for _, v := range vals {
			h.Observe(v)
			d.observe(v)
		}
		s := h.Snapshot()
		if d.count == 0 {
			d.min = 0
		}
		if s.Count != d.count || s.Sum != d.sum || s.Min != d.min || s.Max != d.max {
			t.Fatalf("%s: count/sum/min/max %d/%d/%d/%d, dense %d/%d/%d/%d",
				name, s.Count, s.Sum, s.Min, s.Max, d.count, d.sum, d.min, d.max)
		}
		for _, q := range qs {
			if got, want := s.Quantile(q), d.quantile(q); got != want {
				t.Fatalf("%s: q=%g gives %d, dense %d", name, q, got, want)
			}
		}
	}
}

// TestHistogramFirstObservationRace: eight goroutines released at once
// make their first observations into one block of a fresh histogram. One
// block must win, and it must hold every observation.
func TestHistogramFirstObservationRace(t *testing.T) {
	const goroutines, per = 8, 100
	for round := 0; round < 50; round++ {
		h := NewHistogram()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := 0; j < per; j++ {
					h.Observe(1<<20 + int64(g*per+j)) // all in block 16
				}
			}(g)
		}
		close(start)
		wg.Wait()
		s := h.Snapshot()
		if len(s.blocks) != 1 || s.Count != goroutines*per || h.Count() != goroutines*per {
			t.Fatalf("round %d: %d blocks holding %d observations of %d counted, want 1 block holding %d",
				round, len(s.blocks), s.Count, h.Count(), goroutines*per)
		}
	}
}
