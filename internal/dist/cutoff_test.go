package dist

import (
	"math"
	"testing"
)

func TestFitPowerLawCutoffRecovers(t *testing.T) {
	// Exact model: v(i) = 1e6 * i^-1.2 * exp(-i/400) over 2000 ranks.
	const alpha, cutoff = 1.2, 400.0
	vals := make([]float64, 2000)
	for i := range vals {
		x := float64(i + 1)
		vals[i] = 1e6 * math.Pow(x, -alpha) * math.Exp(-x/cutoff)
	}
	fit, ok := FitPowerLawCutoff(RankCurve{Downloads: vals})
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(fit.Alpha-alpha) > 0.05 {
		t.Fatalf("alpha = %v, want %v", fit.Alpha, alpha)
	}
	if fit.Cutoff < cutoff/1.5 || fit.Cutoff > cutoff*1.5 {
		t.Fatalf("cutoff = %v, want ~%v", fit.Cutoff, cutoff)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v on exact data", fit.R2)
	}
	// eval reproduces the data.
	for _, i := range []int{1, 10, 100, 1000} {
		if rel := math.Abs(fit.eval(i)-vals[i-1]) / vals[i-1]; rel > 0.05 {
			t.Fatalf("eval(%d) off by %v", i, rel)
		}
	}
}

func TestFitPowerLawCutoffPureLaw(t *testing.T) {
	// A pure power law should fit with a cutoff far beyond the data range.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 5e5 * math.Pow(float64(i+1), -1.4)
	}
	fit, ok := FitPowerLawCutoff(RankCurve{Downloads: vals})
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(fit.Alpha-1.4) > 0.1 {
		t.Fatalf("alpha = %v", fit.Alpha)
	}
	if fit.Cutoff < float64(len(vals)) {
		t.Fatalf("pure power law fitted cutoff %v within data range", fit.Cutoff)
	}
}

func TestFitPowerLawCutoffShortCurve(t *testing.T) {
	if _, ok := FitPowerLawCutoff(RankCurve{Downloads: []float64{5, 4, 3}}); ok {
		t.Fatal("short curve accepted")
	}
}

func TestFitPowerLawCutoffIgnoresZeros(t *testing.T) {
	vals := make([]float64, 100)
	for i := 0; i < 50; i++ {
		vals[i] = 1e4 * math.Pow(float64(i+1), -1.1)
	}
	// Tail of zeros (trimmed apps) must not break the fit.
	fit, ok := FitPowerLawCutoff(RankCurve{Downloads: vals})
	if !ok {
		t.Fatal("fit failed")
	}
	if fit.Alpha < 0.8 || fit.Alpha > 1.6 {
		t.Fatalf("alpha = %v", fit.Alpha)
	}
}

// eval returns the fitted value at a 1-based rank.
func (f CutoffFit) eval(rank int) float64 {
	x := float64(rank)
	return math.Exp(f.LogC - f.Alpha*math.Log(x) - x/f.Cutoff)
}
