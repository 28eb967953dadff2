package stats

import "math"

// KendallTau returns Kendall's tau-b rank correlation between xs and ys —
// a robust alternative to Pearson for the heavy-tailed quantities this
// repository deals in (downloads, incomes), where a single outlier can
// dominate the product-moment coefficient. Tau-b corrects for ties. It
// returns 0 for mismatched or sub-2-length inputs or when either input is
// entirely tied.
//
// Complexity is O(n^2); the analyses here compare at most a few thousand
// pairs, where the simple algorithm is both fast enough and obviously
// correct.
func KendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var concordant, discordant float64
	var tiesX, tiesY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				// Joint tie: contributes to neither denominator term.
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	nx := concordant + discordant + tiesX
	ny := concordant + discordant + tiesY
	if nx == 0 || ny == 0 {
		return 0
	}
	return (concordant - discordant) / math.Sqrt(nx*ny)
}
