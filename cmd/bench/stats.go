package main

import (
	"errors"
	"math"
	"slices"
)

// errTooFewSamples is returned by percentile when the sample cannot
// support the percentile asked for.
var errTooFewSamples = errors.New("bench: fewer than 10 samples beyond the percentile")

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. Tail percentiles (p > 50) are refused unless at least ten
// samples lie beyond the rank picked: a p99 read off 300 samples is the
// third-worst request, which is an anecdote, not a percentile.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < 10 {
		return 0, errTooFewSamples
	}
	return sorted[rank-1], nil
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
