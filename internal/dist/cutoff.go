package dist

import (
	"math"

	"planetapps/internal/stats"
)

// CutoffFit is a fitted power law with exponential cutoff,
//
//	v(rank) = C * rank^-alpha * exp(-rank/cutoff)
//
// the functional form prior measurement studies found for user-generated
// content popularity (Cha et al.), which the paper notes resembles app
// popularity. Fitting it to a measured curve quantifies how strong the
// tail truncation is (small Cutoff relative to the number of ranks means a
// hard tail cut; Cutoff >> ranks degenerates to a pure power law).
type CutoffFit struct {
	// Alpha is the power-law exponent.
	Alpha float64
	// Cutoff is the exponential cutoff rank.
	Cutoff float64
	// LogC is the log of the scale constant.
	LogC float64
	// R2 is the coefficient of determination of the log-space fit.
	R2 float64
}

// FitPowerLawCutoff fits the cutoff model to the curve's positive values by
// least squares in log space: log v = logC - alpha*log(rank) - rank/cutoff.
// For fixed cutoff this is linear regression on two predictors; the cutoff
// is chosen by golden-section search on the residual sum of squares over
// [n/50, 50n]. It returns ok=false for curves with fewer than 8 positive
// values.
func FitPowerLawCutoff(c RankCurve) (CutoffFit, bool) {
	var logRank, rank, logV []float64
	for i, v := range c.Downloads {
		if v <= 0 {
			continue
		}
		logRank = append(logRank, math.Log(float64(i+1)))
		rank = append(rank, float64(i+1))
		logV = append(logV, math.Log(v))
	}
	n := len(logV)
	if n < 8 {
		return CutoffFit{}, false
	}
	maxRank := rank[len(rank)-1]

	// rss fits (alpha, logC) for a fixed cutoff by two-predictor least
	// squares and returns the residual sum of squares and coefficients.
	rss := func(cutoff float64) (float64, CutoffFit) {
		// Fold the known cutoff term into the response: y' = logV + rank/cutoff.
		y := make([]float64, n)
		for i := range y {
			y[i] = logV[i] + rank[i]/cutoff
		}
		slope, intercept := stats.LinearFit(logRank, y)
		fit := CutoffFit{Alpha: -slope, Cutoff: cutoff, LogC: intercept}
		var ss float64
		for i := range y {
			r := y[i] - (intercept + slope*logRank[i])
			ss += r * r
		}
		return ss, fit
	}

	// Golden-section search over log(cutoff).
	lo := math.Log(maxRank / 50)
	hi := math.Log(maxRank * 50)
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, _ := rss(math.Exp(x1))
	f2, _ := rss(math.Exp(x2))
	for i := 0; i < 60 && hi-lo > 1e-6; i++ {
		if f1 > f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2, _ = rss(math.Exp(x2))
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1, _ = rss(math.Exp(x1))
		}
	}
	ss, fit := rss(math.Exp((lo + hi) / 2))

	// R^2 against the mean of logV.
	mean := stats.Mean(logV)
	var tot float64
	for _, v := range logV {
		d := v - mean
		tot += d * d
	}
	if tot > 0 {
		// Residuals of the full model in original log space equal the
		// folded-space residuals, so ss is directly comparable.
		fit.R2 = 1 - ss/tot
	}
	return fit, true
}
