package stats

import (
	"math"
	"sort"
	"testing"

	"planetapps/internal/rng"
)

func TestKendallTauPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if tau := KendallTau(xs, ys); math.Abs(tau-1) > 1e-12 {
		t.Fatalf("tau = %v, want 1", tau)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if tau := KendallTau(xs, rev); math.Abs(tau+1) > 1e-12 {
		t.Fatalf("tau = %v, want -1", tau)
	}
}

func TestKendallTauOutlierRobust(t *testing.T) {
	// A single huge outlier flips Pearson but barely moves tau.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{8, 7, 6, 5, 4, 3, 2, 1e9} // decreasing except one freak
	pearson := Pearson(xs, ys)
	tau := KendallTau(xs, ys)
	if pearson <= 0 {
		t.Fatalf("test setup: expected outlier-dominated positive Pearson, got %v", pearson)
	}
	if tau >= 0 {
		t.Fatalf("tau = %v, want negative despite the outlier", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	// Ties reduce |tau| but must not panic or blow past [-1, 1].
	xs := []float64{1, 1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3, 3}
	tau := KendallTau(xs, ys)
	if tau <= 0 || tau > 1 {
		t.Fatalf("tau = %v, want in (0, 1]", tau)
	}
	if KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("all-tied x should yield 0")
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if KendallTau([]float64{1}, []float64{1}) != 0 {
		t.Fatal("single pair should yield 0")
	}
	if KendallTau([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should yield 0")
	}
}

func TestKendallTauAgreesWithSpearmanSign(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 30
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
			ys[i] = xs[i] + 0.3*r.NormFloat64()
		}
		tau := KendallTau(xs, ys)
		rho := spearman(xs, ys)
		if tau*rho < 0 && math.Abs(tau) > 0.1 && math.Abs(rho) > 0.1 {
			t.Fatalf("tau %v and spearman %v disagree in sign", tau, rho)
		}
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	lo, hi := bootstrapCI(xs, Mean, 500, 0.05, 1)
	if !(lo < 10 && 10 < hi) {
		t.Fatalf("95%% CI [%v, %v] does not cover the true mean 10", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Fatalf("CI [%v, %v] too wide for n=400", lo, hi)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	lo1, hi1 := bootstrapCI(xs, Median, 200, 0.1, 7)
	lo2, hi2 := bootstrapCI(xs, Median, 200, 0.1, 7)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("bootstrap not deterministic in the seed")
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	if lo, hi := bootstrapCI(nil, Mean, 100, 0.05, 1); lo != 0 || hi != 0 {
		t.Fatal("empty sample should yield zero interval")
	}
	// Invalid alpha falls back to 0.05 rather than panicking.
	lo, hi := bootstrapCI([]float64{5, 5, 5}, Mean, 50, 2.0, 1)
	if lo != 5 || hi != 5 {
		t.Fatalf("constant sample CI = [%v, %v]", lo, hi)
	}
}

// bootstrapCI returns a percentile bootstrap confidence interval for an
// arbitrary statistic of a sample: resamples copies of xs with
// replacement, applies stat to each, and returns the (alpha/2, 1-alpha/2)
// percentiles of the resampled statistics. Deterministic in the seed.
func bootstrapCI(xs []float64, stat func([]float64) float64, resamples int, alpha float64, seed uint64) (lo, hi float64) {
	if len(xs) == 0 || resamples < 1 {
		return 0, 0
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	r := rng.New(seed)
	vals := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for b := 0; b < resamples; b++ {
		for i := range buf {
			buf[i] = xs[r.Intn(len(xs))]
		}
		vals[b] = stat(buf)
	}
	sort.Float64s(vals)
	return percentileSorted(vals, 100*alpha/2), percentileSorted(vals, 100*(1-alpha/2))
}
