package dist

import (
	"fmt"
	"math"

	"planetapps/internal/rng"
)

// LogNormal samples a lognormal distribution with the given parameters of
// the underlying normal (mu, sigma). Used for app prices and sizes, which
// are positive and right-skewed.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws one lognormal variate.
func (l LogNormal) Sample(r *rng.RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns the analytic mean exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Pareto samples a Pareto (type I) distribution with scale xm > 0 and shape
// alpha > 0. Used for developer portfolio sizes (a few companies ship
// hundreds of apps, most developers ship one).
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws one Pareto variate via inverse transform.
func (p Pareto) Sample(r *rng.RNG) float64 {
	u := r.Float64()
	// Guard: Float64 is in [0,1); u==0 maps to +Inf, so nudge.
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// BoundedParetoInt draws an integer Pareto variate clamped to [min, max].
func BoundedParetoInt(r *rng.RNG, p Pareto, min, max int) int {
	if min > max {
		panic(fmt.Sprintf("dist: BoundedParetoInt min %d > max %d", min, max))
	}
	v := int(p.Sample(r))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Geometric returns a geometric variate counting failures before the first
// success with success probability p in (0, 1]: support {0, 1, 2, ...}.
func Geometric(r *rng.RNG, p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("dist: Geometric p out of range: %v", p))
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Categorical samples indices 0..len(w)-1 with probability proportional to
// the non-negative weights w. It precomputes a cumulative table and its
// bucket guide, which a draw searches as Zipf's does.
type Categorical struct {
	cum   []float64
	guide []int32 // newGuide(cum)
}

// NewCategorical builds a categorical distribution from weights. It returns
// an error when the weights are empty, negative, or all zero.
func NewCategorical(weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("dist: empty categorical weights")
	}
	c := &Categorical{cum: make([]float64, len(weights))}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("dist: invalid weight %v at index %d", w, i)
		}
		sum += w
		c.cum[i] = sum
	}
	if sum == 0 {
		return nil, fmt.Errorf("dist: all categorical weights are zero")
	}
	inv := 1 / sum
	for i := range c.cum {
		c.cum[i] *= inv
	}
	c.cum[len(c.cum)-1] = 1
	c.guide = newGuide(c.cum)
	return c, nil
}

// MustCategorical is NewCategorical that panics on error.
func MustCategorical(weights []float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws an index.
func (c *Categorical) Sample(r *rng.RNG) int {
	return search(c.cum, c.guide, r.Float64())
}

// P returns the probability of index i.
func (c *Categorical) P(i int) float64 {
	if i < 0 || i >= len(c.cum) {
		return 0
	}
	if i == 0 {
		return c.cum[0]
	}
	return c.cum[i] - c.cum[i-1]
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.cum) }
