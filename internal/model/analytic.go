package model

import (
	"math"

	"planetapps/internal/dist"
)

// exposureT solves sum_i (1 - exp(-probs[i]*t)) = n for t >= 0 by bisection.
// The left side is the expected number of distinct items captured by
// weighted sampling without replacement when the process is Poissonized
// with exposure t; inverting it yields per-item inclusion probabilities
// 1 - exp(-p_i * t) that closely approximate drawing exactly n distinct
// items by rejection — which is what the simulators (and the paper's
// simulators) actually do. When n >= len(probs) the solution diverges;
// +Inf is returned and the caller treats every item as included.
func exposureT(probs []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	if n >= float64(len(probs)) {
		return math.Inf(1)
	}
	captured := func(t float64) float64 {
		s := 0.0
		for _, p := range probs {
			s += 1 - math.Exp(-p*t)
		}
		return s
	}
	// Bracket the root by doubling.
	lo, hi := 0.0, 1.0
	for captured(hi) < n {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if captured(mid) < n {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// inclusion returns 1 - exp(-p*t), handling t = +Inf.
func inclusion(p, t float64) float64 {
	if math.IsInf(t, 1) {
		if p > 0 {
			return 1
		}
		return 0
	}
	return 1 - math.Exp(-p*t)
}

// zipfProbs returns the bounded Zipf pmf over ranks 1..n with exponent s.
func zipfProbs(n int, s float64) []float64 {
	h := dist.Harmonic(n, s)
	ps := make([]float64, n)
	for i := 1; i <= n; i++ {
		ps[i-1] = math.Pow(float64(i), -s) / h
	}
	return ps
}

// PredictCurve returns the analytic expected rank-downloads curve for the
// given model kind, sorted descending — the object the distance metric
// (Eq. 6) compares against observed data.
//
// The prediction refines the paper's Eq. 5 in two ways so that it tracks
// the Monte Carlo simulators:
//
//  1. Fetch-at-most-once is modeled with the exposure (Poissonization)
//     approximation of weighted sampling without replacement rather than
//     d independent with-replacement draws, capturing the probability
//     boost that rejection re-draws give less popular apps.
//  2. Cluster-based draws only reach an app when the user's sticky cluster
//     is the app's cluster, which happens with probability equal to the
//     cluster's share of global popularity mass (1/C for equal interleaved
//     clusters), instead of probability 1.
//
// Apps are assumed indexed by global appeal rank (app 0 = rank 1), the
// convention RoundRobin and the simulators share.
func PredictCurve(kind Kind, cfg Config) dist.RankCurve {
	vals := make([]float64, cfg.Apps)
	pg := zipfProbs(cfg.Apps, cfg.ZipfGlobal)
	u := float64(cfg.Users)
	d := cfg.DownloadsPerUser
	switch kind {
	case Zipf:
		for i := range vals {
			vals[i] = u * d * pg[i]
		}
	case ZipfAtMostOnce:
		t := exposureT(pg, d)
		for i := range vals {
			vals[i] = u * inclusion(pg[i], t)
		}
	case AppClustering:
		cm := cfg.ClusterMap
		if cm == nil {
			cm = RoundRobin(cfg.Apps, cfg.Clusters)
		}
		// Global component exposure covers the (1-p)*d global draws.
		tg := exposureT(pg, (1-cfg.ClusterP)*d)
		// Per-cluster visit mass: probability a user's sticky cluster is c,
		// estimated by the cluster's share of global popularity (first
		// downloads and cluster re-selection are both seeded by ZG).
		for _, members := range cm.Members {
			if len(members) == 0 {
				continue
			}
			mass := 0.0
			for _, app := range members {
				mass += pg[app]
			}
			pc := zipfProbs(len(members), cfg.ZipfCluster)
			// A user committed to this cluster spends p*d draws in it.
			tc := exposureT(pc, cfg.ClusterP*d)
			for j, app := range members {
				inG := inclusion(pg[app], tg)
				inC := inclusion(pc[j], tc)
				// P(download) = 1 - P(miss globally) * P(miss via cluster),
				// where the cluster miss is 1 unless the user's cluster is
				// this one (probability mass).
				vals[app] = u * (1 - (1-inG)*(1-mass*inC))
			}
		}
	}
	return dist.NewRankCurve(vals)
}
