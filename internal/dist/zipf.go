// Package dist provides the probability distributions and distribution
// fitting used by the appstore workload models: bounded Zipf samplers (the
// backbone of ZIPF, ZIPF-at-most-once and APP-CLUSTERING), heavy-tailed
// price/size generators, and power-law exponent estimation from observed
// rank-frequency data.
package dist

import (
	"fmt"
	"math"

	"planetapps/internal/rng"
)

// Zipf samples ranks from a bounded Zipf (zeta) distribution: rank i in
// [1, N] is drawn with probability proportional to 1/i^s. Sampling is by
// inverse-CDF search over a precomputed cumulative table, narrowed by a
// bucket guide (search) to the few ranks a draw's bucket spans, after O(N)
// setup; the tables are shared and safe for concurrent readers (each draw
// uses a caller-supplied RNG).
type Zipf struct {
	n     int
	s     float64
	cum   []float64 // cum[i] = P(rank <= i+1), cum[n-1] == 1
	guide []int32   // newGuide(cum)
}

// NewZipf builds a bounded Zipf distribution over ranks 1..n with exponent
// s >= 0. s = 0 is the uniform distribution. It returns an error when n < 1
// or s is not finite.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: Zipf needs n >= 1, got %d", n)
	}
	zs, err := NewZipfs([]int{n}, s)
	if err != nil {
		return nil, err
	}
	return zs[0], nil
}

// NewZipfs builds, for each size in sizes, the bounded Zipf of exponent s
// over ranks 1..size, or nil for a size of 0; equal sizes share one Zipf.
// Every table is cut from one prefix sum of i^-s over the largest size: its
// first n sums are the ones a table of n alone adds up, in the same order,
// each scaled by 1/(the n-th sum), so a table is bit for bit the one built
// on its own, at one math.Pow a rank of the largest size. It returns an
// error for a negative size or an exponent NewZipf refuses.
func NewZipfs(sizes []int, s float64) ([]*Zipf, error) {
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return nil, fmt.Errorf("dist: Zipf exponent must be finite and >= 0, got %v", s)
	}
	largest := 0
	for _, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("dist: Zipf needs n >= 0, got %d", n)
		}
		largest = max(largest, n)
	}
	prefix := make([]float64, largest)
	sum := 0.0
	for i := range prefix {
		sum += math.Pow(float64(i+1), -s)
		prefix[i] = sum
	}
	zs := make([]*Zipf, len(sizes))
	bySize := make(map[int]*Zipf)
	for i, n := range sizes {
		if n == 0 {
			continue
		}
		z := bySize[n]
		if z == nil {
			z = &Zipf{n: n, s: s, cum: make([]float64, n)}
			inv := 1 / prefix[n-1]
			for j, p := range prefix[:n] {
				z.cum[j] = p * inv
			}
			z.cum[n-1] = 1 // guard against accumulated rounding
			z.guide = newGuide(z.cum)
			bySize[n] = z
		}
		zs[i] = z
	}
	return zs, nil
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
	return z.Rank(r.Float64())
}

// Rank returns the rank a uniform draw u in [0, 1) samples: Sample is
// Rank(r.Float64()), so a caller may draw u in stream order and search for
// its rank later, or on another goroutine.
func (z *Zipf) Rank(u float64) int {
	return search(z.cum, z.guide, u) + 1
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
