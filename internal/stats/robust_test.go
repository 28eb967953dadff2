package stats

import (
	"math"
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
