package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"planetapps/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, / 7.
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/short-input conventions violated")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile of empty slice should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant series should yield 0")
	}
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should yield 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	r := rng.New(5)
	if err := quick.Check(func(seed uint16) bool {
		n := 10
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
			ys[i] = r.Float64()
		}
		c := Pearson(xs, ys)
		return c >= -1-1e-9 && c <= 1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 10, 100, 1000, 10000} // nonlinear but monotone
	if s := spearman(xs, ys); !almostEq(s, 1, 1e-12) {
		t.Fatalf("spearman = %v, want 1", s)
	}
}

func TestRanksTies(t *testing.T) {
	rs := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(rs[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", rs, want)
		}
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if !almostEq(slope, 2, 1e-12) || !almostEq(intercept, 1, 1e-12) {
		t.Fatalf("LinearFit = (%v, %v), want (2, 1)", slope, intercept)
	}
	s, ic := LinearFit([]float64{5, 5}, []float64{1, 3})
	if s != 0 || ic != 2 {
		t.Fatalf("constant-x fit = (%v, %v), want (0, 2)", s, ic)
	}
}

func TestMeanCI95(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i % 2) // mean 0.5, sd ~0.5006
	}
	mean, hw := MeanCI95(xs)
	if !almostEq(mean, 0.5, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	wantHW := 1.96 * StdDev(xs) / 20
	if !almostEq(hw, wantHW, 1e-9) {
		t.Fatalf("halfWidth = %v, want %v", hw, wantHW)
	}
	if _, hw := MeanCI95([]float64{7}); hw != 0 {
		t.Fatal("single-sample CI should be 0")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q := e.Quantile(0.5); q != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", q)
	}
	if q := e.Quantile(1); q != 3 {
		t.Fatalf("Quantile(1) = %v, want 3", q)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	e := NewECDF(xs)
	if err := quick.Check(func(qRaw uint8) bool {
		q := float64(qRaw%99+1) / 100
		v := e.Quantile(q)
		return e.At(v) >= q
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 3})
	xs, ps := e.Points(0)
	if len(xs) != len(ps) || len(xs) == 0 {
		t.Fatalf("Points returned %d xs, %d ps", len(xs), len(ps))
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("last CDF point should be 1, got %v", ps[len(ps)-1])
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] || xs[i] < xs[i-1] {
			t.Fatalf("Points not monotone: xs=%v ps=%v", xs, ps)
		}
	}
}

func TestKSDistance(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3, 4, 5})
	if d := ksDistance(a, a); d != 0 {
		t.Fatalf("KS self-distance = %v", d)
	}
	b := NewECDF([]float64{11, 12, 13})
	if d := ksDistance(a, b); !almostEq(d, 1, 1e-12) {
		t.Fatalf("disjoint KS distance = %v, want 1", d)
	}
}

func TestTopShare(t *testing.T) {
	// One item holding 90 of total 100: top 10% of 10 items = 1 item = 90%.
	xs := []float64{90, 2, 1, 1, 1, 1, 1, 1, 1, 1}
	if s := TopShare(xs, 0.10); !almostEq(s, 0.9, 1e-12) {
		t.Fatalf("TopShare = %v, want 0.9", s)
	}
	if s := TopShare(xs, 1); !almostEq(s, 1, 1e-12) {
		t.Fatalf("TopShare(all) = %v, want 1", s)
	}
	if TopShare(nil, 0.5) != 0 || TopShare(xs, 0) != 0 {
		t.Fatal("degenerate TopShare conventions violated")
	}
	// topFrac selecting <1 item rounds up to 1 item.
	if s := TopShare(xs, 0.01); !almostEq(s, 0.9, 1e-12) {
		t.Fatalf("tiny TopShare = %v, want 0.9", s)
	}
}

func TestShareCurveMonotone(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 100
	}
	c := NewShareCurve(xs, []float64{1, 5, 10, 20, 50, 100})
	for i := 1; i < len(c.SharePct); i++ {
		if c.SharePct[i] < c.SharePct[i-1] {
			t.Fatalf("share curve not monotone: %v", c.SharePct)
		}
	}
	if !almostEq(c.SharePct[len(c.SharePct)-1], 100, 1e-9) {
		t.Fatalf("full share should be 100%%, got %v", c.SharePct)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{5, 5, 5, 5}); !almostEq(g, 0, 1e-12) {
		t.Fatalf("equal gini = %v, want 0", g)
	}
	// All mass on one of n items → gini = (n-1)/n.
	g := gini([]float64{0, 0, 0, 100})
	if !almostEq(g, 0.75, 1e-12) {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	if gini(nil) != 0 || gini([]float64{0, 0}) != 0 {
		t.Fatal("degenerate gini conventions violated")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 5)
	if !h.Add(0.5, 10) || !h.Add(0.9, 20) || !h.Add(4.9, 7) {
		t.Fatal("in-range Add returned false")
	}
	if h.Add(5.0, 1) || h.Add(-0.1, 1) {
		t.Fatal("out-of-range Add returned true")
	}
	if h.Counts[0] != 2 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if m := h.MeanIn(0); !almostEq(m, 15, 1e-12) {
		t.Fatalf("MeanIn(0) = %v, want 15", m)
	}
	if m := h.MeanIn(1); m != 0 {
		t.Fatalf("MeanIn(empty) = %v, want 0", m)
	}
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero width did not panic")
		}
	}()
	NewHistogram(0, 0, 5)
}

// spearman returns spearman's rank correlation coefficient: the Pearson
// correlation of the rank-transformed data, with ties assigned the mean of
// the ranks they span.
func spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns the fractional ranks (1-based) of xs, averaging ranks over
// ties.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group spanning sorted positions [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// ksDistance returns the Kolmogorov-Smirnov statistic between two empirical
// distributions: the maximum absolute difference of their CDFs.
func ksDistance(a, b *ECDF) float64 {
	maxD := 0.0
	for _, x := range a.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxD {
			maxD = d
		}
	}
	for _, x := range b.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// gini returns the gini coefficient of xs (0 = perfectly equal, →1 =
// maximally concentrated). Used as a scalar summary of popularity skew.
func gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var cum, weighted float64
	for i, v := range s {
		cum += v
		weighted += float64(i+1) * v
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
