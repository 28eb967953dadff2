// Package model implements the paper's appstore workload models:
//
//   - ZIPF: every download is an independent draw from a store-wide
//     Zipf-like popularity distribution (the classic web-workload model).
//   - ZIPF-at-most-once: draws come from the same distribution but a user
//     never downloads the same app twice (the fetch-at-most-once property
//     of peer-to-peer workloads).
//   - APP-CLUSTERING: the paper's contribution (§5.1). Apps are grouped
//     into clusters; after the first download, each subsequent download is
//     drawn from the cluster of a previous download with probability p
//     (within-cluster Zipf Zc) and from the global Zipf ZG with
//     probability 1-p, always respecting fetch-at-most-once.
//
// The package provides Monte Carlo simulators for all three models, the
// analytic expected-downloads formula (Eq. 5), the mean-relative-error
// distance against observed data (Eq. 6), and a parameter-sweep fitter.
package model

import (
	"fmt"

	"planetapps/internal/dist"
	"planetapps/internal/rng"
)

// Kind selects one of the three workload models.
type Kind int

const (
	// Zipf is the pure store-wide Zipf model.
	Zipf Kind = iota
	// ZipfAtMostOnce adds the fetch-at-most-once constraint to Zipf.
	ZipfAtMostOnce
	// AppClustering is the paper's clustering model.
	AppClustering
)

// Kinds lists all model kinds in presentation order.
var Kinds = []Kind{Zipf, ZipfAtMostOnce, AppClustering}

func (k Kind) String() string {
	switch k {
	case Zipf:
		return "ZIPF"
	case ZipfAtMostOnce:
		return "ZIPF-at-most-once"
	case AppClustering:
		return "APP-CLUSTERING"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config holds the parameters of Table 2 in the paper.
type Config struct {
	// Apps is the number of apps A.
	Apps int
	// Users is the number of users U.
	Users int
	// DownloadsPerUser is d, the mean downloads per user. Each simulated
	// user performs floor(d) downloads plus one more with probability
	// frac(d), so the expected total is U*d.
	DownloadsPerUser float64
	// ZipfGlobal is zr, the exponent of the overall ranking distribution ZG.
	ZipfGlobal float64
	// ZipfCluster is zc, the exponent of the within-cluster distribution Zc.
	// Ignored by the non-clustering models.
	ZipfCluster float64
	// ClusterP is p, the probability that a download is clustering-based.
	// Ignored by the non-clustering models.
	ClusterP float64
	// Clusters is C, the number of clusters. Ignored by the non-clustering
	// models. When ClusterMap is nil, apps are assigned round-robin so all
	// clusters have (near-)equal size, matching the paper's analysis
	// assumption.
	Clusters int
	// ClusterMap optionally supplies an explicit app-to-cluster assignment
	// (e.g. from a generated catalog). When set, Clusters is ignored.
	ClusterMap *ClusterMap
}

// Validate reports the first invalid parameter.
func (c Config) Validate(kind Kind) error {
	if c.Apps < 1 {
		return fmt.Errorf("model: Apps = %d, need >= 1", c.Apps)
	}
	if c.Users < 1 {
		return fmt.Errorf("model: Users = %d, need >= 1", c.Users)
	}
	if c.DownloadsPerUser < 0 {
		return fmt.Errorf("model: DownloadsPerUser = %v, need >= 0", c.DownloadsPerUser)
	}
	if c.ZipfGlobal < 0 {
		return fmt.Errorf("model: ZipfGlobal = %v, need >= 0", c.ZipfGlobal)
	}
	if kind == AppClustering {
		if c.ZipfCluster < 0 {
			return fmt.Errorf("model: ZipfCluster = %v, need >= 0", c.ZipfCluster)
		}
		if c.ClusterP < 0 || c.ClusterP > 1 {
			return fmt.Errorf("model: ClusterP = %v, need in [0,1]", c.ClusterP)
		}
		if c.ClusterMap == nil && c.Clusters < 1 {
			return fmt.Errorf("model: Clusters = %d, need >= 1", c.Clusters)
		}
		if c.ClusterMap != nil && len(c.ClusterMap.OfApp) != c.Apps {
			return fmt.Errorf("model: ClusterMap covers %d apps, config has %d", len(c.ClusterMap.OfApp), c.Apps)
		}
	}
	return nil
}

// ClusterMap assigns every app to exactly one cluster and records the
// within-cluster rank order.
type ClusterMap struct {
	// OfApp maps app index -> cluster index.
	OfApp []int32
	// Members[c] lists the app indices of cluster c in within-cluster rank
	// order (Members[c][0] is the cluster's most popular app).
	Members [][]int32
}

// RoundRobin deals apps to clusters by global rank: app i (rank i+1) joins
// cluster i mod clusters, and its within-cluster rank is i/clusters + 1.
// This makes all clusters (near-)equal in size and interleaves the global
// ranking across clusters, which is the assignment the paper's analytic
// model (Eq. 5) presumes.
func RoundRobin(apps, clusters int) *ClusterMap {
	if clusters < 1 {
		clusters = 1
	}
	if clusters > apps {
		clusters = apps
	}
	m := &ClusterMap{
		OfApp:   make([]int32, apps),
		Members: make([][]int32, clusters),
	}
	per := (apps + clusters - 1) / clusters
	for c := range m.Members {
		m.Members[c] = make([]int32, 0, per)
	}
	for i := 0; i < apps; i++ {
		c := i % clusters
		m.OfApp[i] = int32(c)
		m.Members[c] = append(m.Members[c], int32(i))
	}
	return m
}

// Contiguous assigns apps to clusters in contiguous global-rank blocks:
// cluster 0 holds ranks 1..SC, cluster 1 the next SC, and so on. Under this
// assignment cluster popularity is maximally skewed — the head cluster
// absorbs most first downloads, and apps in tail clusters are starved of
// both global and cluster-based draws. It is the regime where the
// clustering effect's tail truncation is strongest; real category
// assignments fall between Contiguous and RoundRobin.
func Contiguous(apps, clusters int) *ClusterMap {
	if clusters < 1 {
		clusters = 1
	}
	if clusters > apps {
		clusters = apps
	}
	m := &ClusterMap{
		OfApp:   make([]int32, apps),
		Members: make([][]int32, clusters),
	}
	per := (apps + clusters - 1) / clusters
	for i := 0; i < apps; i++ {
		c := i / per
		if c >= clusters {
			c = clusters - 1
		}
		m.OfApp[i] = int32(c)
		m.Members[c] = append(m.Members[c], int32(i))
	}
	return m
}

// Clusters returns the number of clusters.
func (m *ClusterMap) Clusters() int { return len(m.Members) }

// Result is the outcome of a simulation run.
type Result struct {
	// Downloads[i] is the simulated download count of app i.
	Downloads []int64
	// Total is the number of download events generated.
	Total int64
}

// Curve returns the rank-ordered download curve (descending), the form the
// paper plots and the distance metric consumes.
func (r Result) Curve() dist.RankCurve {
	vals := make([]float64, len(r.Downloads))
	for i, d := range r.Downloads {
		vals[i] = float64(d)
	}
	return dist.NewRankCurve(vals)
}

// userDownloads returns the number of downloads user u performs: floor(d)
// plus one with probability frac(d).
func userDownloads(r *rng.RNG, d float64) int {
	n := int(d)
	if r.Bool(d - float64(n)) {
		n++
	}
	return n
}
