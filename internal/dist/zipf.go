// Package dist provides the probability distributions and distribution
// fitting used by the appstore workload models: bounded Zipf samplers (the
// backbone of ZIPF, ZIPF-at-most-once and APP-CLUSTERING), heavy-tailed
// price/size generators, and power-law exponent estimation from observed
// rank-frequency data.
package dist

import (
	"fmt"
	"math"
	"sort"

	"planetapps/internal/rng"
)

// Zipf samples ranks from a bounded Zipf (zeta) distribution: rank i in
// [1, N] is drawn with probability proportional to 1/i^s. Sampling is by
// inverse-CDF binary search over a precomputed cumulative table, O(log N)
// per draw after O(N) setup; the table is shared and safe for concurrent
// readers (each draw uses a caller-supplied RNG).
type Zipf struct {
	n   int
	s   float64
	cum []float64 // cum[i] = P(rank <= i+1), cum[n-1] == 1
}

// NewZipf builds a bounded Zipf distribution over ranks 1..n with exponent
// s >= 0. s = 0 is the uniform distribution. It returns an error when n < 1
// or s is not finite.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: Zipf needs n >= 1, got %d", n)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return nil, fmt.Errorf("dist: Zipf exponent must be finite and >= 0, got %v", s)
	}
	z := &Zipf{n: n, s: s, cum: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -s)
		z.cum[i-1] = sum
	}
	inv := 1 / sum
	for i := range z.cum {
		z.cum[i] *= inv
	}
	z.cum[n-1] = 1 // guard against accumulated rounding
	return z, nil
}

// P returns the probability of rank i (1-based).
func (z *Zipf) P(i int) float64 {
	if i < 1 || i > z.n {
		return 0
	}
	if i == 1 {
		return z.cum[0]
	}
	return z.cum[i-1] - z.cum[i-2]
}

// Sample draws a rank in [1, n].
func (z *Zipf) Sample(r *rng.RNG) int {
	u := r.Float64()
	// First index with cum >= u.
	return sort.SearchFloat64s(z.cum, u) + 1
}

// Harmonic returns the generalized harmonic number H_{n,s} =
// sum_{k=1..n} k^-s, the normalizing constant of a bounded Zipf.
func Harmonic(n int, s float64) float64 {
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
	}
	return sum
}
