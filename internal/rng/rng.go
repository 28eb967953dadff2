// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every simulation in this repository.
//
// All experiments in the paper reproduction must be replayable from a single
// 64-bit seed: two runs with the same seed produce byte-identical results.
// The standard library's math/rand is avoided because its global state and
// historical algorithm changes make cross-version determinism fragile; this
// package pins the algorithm (xoshiro256** seeded via splitmix64) so results
// are stable across Go releases.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is invalid; construct with
// New or by splitting an existing generator.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used both to expand seeds into xoshiro state and to derive child seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// Mix64 is splitmix64's finalizer: a full-avalanche bijection on 64 bits,
// so inputs that differ in a bit or two — consecutive ids, adjacent
// arrival indexes — come out uncorrelated. The ring, the fault injector
// and the write funnel hash with it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	st := seed
	r := &RNG{}
	r.s0 = splitmix64(&st)
	r.s1 = splitmix64(&st)
	r.s2 = splitmix64(&st)
	r.s3 = splitmix64(&st)
	return r
}

// Split derives an independent child generator from r and the given label.
// Splitting lets concurrent simulation components own private streams while
// remaining fully determined by the root seed.
//
// Contract (relied on by model.Simulator.RunParallel and every other
// deterministic-parallel consumer): the child's stream is a pure function of
// (r's state at the call, label), and Split advances r by exactly one Uint64
// draw. A sequence root.Split(0), root.Split(1), ... therefore yields a
// fixed family of streams that can be handed to any number of workers in
// any partition without changing a single drawn value — parallel results
// stay byte-identical to sequential ones. An RNG itself is NOT safe for
// concurrent use; perform all splitting on one goroutine, then give each
// worker exclusive ownership of its children. The splitting algorithm is
// part of this package's compatibility contract and must not change, or
// every recorded experiment seed silently re-rolls.
func (r *RNG) Split(label uint64) *RNG {
	c := &RNG{}
	r.SplitInto(label, c)
	return c
}

// SplitInto is Split writing the child state into dst instead of
// allocating. It derives the exact same child as Split for the same
// (state, label), so the two are interchangeable under the compatibility
// contract; bulk consumers (one stream per simulated user) use it to
// build a whole stream family in a single allocation.
func (r *RNG) SplitInto(label uint64, dst *RNG) {
	st := r.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	dst.s0 = splitmix64(&st)
	dst.s1 = splitmix64(&st)
	dst.s2 = splitmix64(&st)
	dst.s3 = splitmix64(&st)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) by rejection sampling: a draw
// below 2^64 mod n is redrawn, any other is reduced mod n. It panics if
// n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		v := r.Uint64()
		// The rejection threshold 2^64 mod n is below n, so a draw of at
		// least n is accepted without computing it: one division per draw.
		if v >= n {
			return v % n
		}
		// v < n (probability n / 2^64): v is its own residue, kept unless
		// it falls under the threshold.
		if v >= -n%n {
			return v
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. No state beyond the generator is kept, so results stay
// deterministic under splitting.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle randomizes the order of n elements using Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ShuffleInt32 is Shuffle over s with the swap inlined: the same draws in
// the same order, the same permutation, the same generator state after.
// The draws do not depend on s, so each block's indexes are drawn before
// its swaps run; on a slice larger than the cache the swaps' misses then
// overlap instead of each waiting behind a division.
func (r *RNG) ShuffleInt32(s []int32) {
	var js [shuffleBlock]int
	for i := len(s) - 1; i > 0; {
		b := min(i, shuffleBlock)
		for k := 0; k < b; k++ {
			js[k] = r.Intn(i - k + 1)
		}
		for _, j := range js[:b] {
			s[i], s[j] = s[j], s[i]
			i--
		}
	}
}

// shuffleBlock is how many swap indexes ShuffleInt32 draws ahead. Measured
// on an 8.2 M-element slice: 32 is a quarter slower, 1,024 no faster.
const shuffleBlock = 128

// Poisson returns a Poisson variate with the given mean using Knuth's method
// for small means and a normal approximation for large ones. The
// approximation keeps generation O(1) for the large arrival rates used by
// the market simulator.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
