package dist

import (
	"math"
	"testing"
	"testing/quick"

	"planetapps/internal/rng"
)

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 1.7, 3} {
		z := mustZipf(100, s)
		sum := 0.0
		for i := 1; i <= 100; i++ {
			sum += z.P(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("s=%v: probabilities sum to %v", s, sum)
		}
	}
}

func TestZipfMonotone(t *testing.T) {
	z := mustZipf(50, 1.2)
	for i := 2; i <= 50; i++ {
		if z.P(i) > z.P(i-1) {
			t.Fatalf("P(%d)=%v > P(%d)=%v", i, z.P(i), i-1, z.P(i-1))
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := mustZipf(10, 0)
	for i := 1; i <= 10; i++ {
		if math.Abs(z.P(i)-0.1) > 1e-12 {
			t.Fatalf("uniform P(%d) = %v", i, z.P(i))
		}
	}
}

func TestZipfSampleRange(t *testing.T) {
	z := mustZipf(20, 1.5)
	r := rng.New(1)
	if err := quick.Check(func(uint8) bool {
		v := z.Sample(r)
		return v >= 1 && v <= 20
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	const n = 10
	z := mustZipf(n, 1.0)
	r := rng.New(2)
	const draws = 500000
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for i := 1; i <= n; i++ {
		got := float64(counts[i]) / draws
		want := z.P(i)
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("rank %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("negative exponent accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("NaN exponent accepted")
	}
}

func TestHarmonic(t *testing.T) {
	if h := Harmonic(1, 2); h != 1 {
		t.Fatalf("H(1,2) = %v", h)
	}
	want := 1 + 0.5 + 1.0/3
	if h := Harmonic(3, 1); math.Abs(h-want) > 1e-12 {
		t.Fatalf("H(3,1) = %v, want %v", h, want)
	}
}

func TestLogNormalMean(t *testing.T) {
	l := LogNormal{Mu: 0.5, Sigma: 0.8}
	r := rng.New(3)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += l.Sample(r)
	}
	got := sum / n
	if math.Abs(got-l.Mean()) > l.Mean()*0.03 {
		t.Fatalf("lognormal sample mean = %v, want ~%v", got, l.Mean())
	}
}

func TestParetoSupport(t *testing.T) {
	p := Pareto{Xm: 2, Alpha: 1.5}
	r := rng.New(4)
	for i := 0; i < 10000; i++ {
		if v := p.Sample(r); v < 2 {
			t.Fatalf("Pareto sample %v below scale", v)
		}
	}
}

func TestBoundedParetoInt(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 0.7}
	r := rng.New(5)
	for i := 0; i < 10000; i++ {
		v := BoundedParetoInt(r, p, 1, 50)
		if v < 1 || v > 50 {
			t.Fatalf("bounded sample %d out of range", v)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := rng.New(6)
	p := 0.25
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += Geometric(r, p)
	}
	got := float64(sum) / n
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("geometric mean = %v, want %v", got, want)
	}
	if Geometric(r, 1) != 0 {
		t.Fatal("Geometric(1) should be 0")
	}
}

func TestCategorical(t *testing.T) {
	c := MustCategorical([]float64{1, 0, 3})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if math.Abs(c.P(0)-0.25) > 1e-12 || c.P(1) != 0 || math.Abs(c.P(2)-0.75) > 1e-12 {
		t.Fatalf("P = %v %v %v", c.P(0), c.P(1), c.P(2))
	}
	r := rng.New(7)
	const n = 200000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.25) > 0.01 {
		t.Fatalf("category 0 frequency %v", f)
	}
}

func TestCategoricalErrors(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestRankCurveSorting(t *testing.T) {
	c := NewRankCurve([]float64{3, 9, 1})
	if c.Downloads[0] != 9 || c.Downloads[2] != 1 {
		t.Fatalf("rank curve not sorted: %v", c.Downloads)
	}
	if c.Top() != 9 || c.Total() != 13 {
		t.Fatalf("Top/Total wrong: %v %v", c.Top(), c.Total())
	}
}

func TestTrunkExponentRecoversSlope(t *testing.T) {
	// Construct an exact power law: v(i) = 1e6 * i^-1.4.
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = 1e6 * math.Pow(float64(i+1), -1.4)
	}
	c := RankCurve{Downloads: vals}
	got := c.TrunkExponent(0.01, 0.01)
	if math.Abs(got-1.4) > 0.02 {
		t.Fatalf("trunk exponent = %v, want 1.4", got)
	}
}

func TestZipfMLERecoversExponent(t *testing.T) {
	// Counts proportional to the true Zipf pmf recover the exponent exactly.
	const n = 500
	const s = 1.3
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e7 * math.Pow(float64(i+1), -s)
	}
	c := RankCurve{Downloads: vals}
	got := c.zipfMLE(0.1, 3)
	if math.Abs(got-s) > 0.02 {
		t.Fatalf("MLE exponent = %v, want %v", got, s)
	}
}

func TestMeanRelativeError(t *testing.T) {
	a := RankCurve{Downloads: []float64{100, 50, 25}}
	if d := MeanRelativeError(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	b := RankCurve{Downloads: []float64{110, 55, 27.5}} // +10% everywhere
	if d := MeanRelativeError(a, b); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("distance = %v, want 0.1", d)
	}
	// Simulated curve missing the tail counts those ranks as fully missed.
	short := RankCurve{Downloads: []float64{100}}
	d := MeanRelativeError(a, short)
	if math.Abs(d-2.0/3) > 1e-12 {
		t.Fatalf("short-curve distance = %v, want 2/3", d)
	}
}

func TestHeadFlatnessDetectsTruncation(t *testing.T) {
	// Pure power law: flatness ~1.
	pure := make([]float64, 5000)
	for i := range pure {
		pure[i] = 1e6 * math.Pow(float64(i+1), -1.3)
	}
	pureFlat := RankCurve{Downloads: pure}.HeadFlatness()
	if pureFlat < 0.8 || pureFlat > 1.3 {
		t.Fatalf("pure power law head flatness = %v, want ~1", pureFlat)
	}
	// Clamp the head as fetch-at-most-once would.
	clamped := append([]float64(nil), pure...)
	for i := range clamped {
		if clamped[i] > 20000 {
			clamped[i] = 20000
		}
	}
	clampFlat := RankCurve{Downloads: clamped}.HeadFlatness()
	if clampFlat >= pureFlat {
		t.Fatalf("clamped head flatness %v not below pure %v", clampFlat, pureFlat)
	}
}

func TestTailDropDetectsTruncation(t *testing.T) {
	pure := make([]float64, 5000)
	for i := range pure {
		pure[i] = 1e6 * math.Pow(float64(i+1), -1.1)
	}
	pureDrop := RankCurve{Downloads: pure}.TailDrop()
	// Suppress the tail as the clustering effect would.
	cut := append([]float64(nil), pure...)
	for i := 4000; i < len(cut); i++ {
		cut[i] *= 0.05
	}
	cutDrop := RankCurve{Downloads: cut}.TailDrop()
	if cutDrop >= pureDrop {
		t.Fatalf("cut tail drop %v not below pure %v", cutDrop, pureDrop)
	}
}

func BenchmarkNewZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustZipf(60000, 1.4)
	}
}

// mustZipf is NewZipf that panics on error; for static configurations.
func mustZipf(n int, s float64) *Zipf {
	z, err := NewZipf(n, s)
	if err != nil {
		panic(err)
	}
	return z
}

// zipfMLE estimates the exponent of a bounded discrete power law from the
// observed values by maximizing the Zipf likelihood over a grid refined by
// golden-section search. The curve's values are interpreted as draw counts
// per rank (rank = index+1).
func (c RankCurve) zipfMLE(sMin, sMax float64) float64 {
	n := len(c.Downloads)
	if n == 0 {
		return 0
	}
	// Log-likelihood up to a constant: -s * sum(count_i * ln i) - D * ln H(n, s).
	var sumCountLn, total float64
	for i, v := range c.Downloads {
		if v <= 0 {
			continue
		}
		sumCountLn += v * math.Log(float64(i+1))
		total += v
	}
	if total == 0 {
		return 0
	}
	ll := func(s float64) float64 {
		return -s*sumCountLn - total*math.Log(Harmonic(n, s))
	}
	// Golden-section search for the maximum on [sMin, sMax].
	const phi = 0.6180339887498949
	a, b := sMin, sMax
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := ll(x1), ll(x2)
	for i := 0; i < 80 && b-a > 1e-6; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = ll(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = ll(x1)
		}
	}
	return (a + b) / 2
}
