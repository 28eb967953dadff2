// Package planetapps is a Go reproduction of "Rise of the Planet of the
// Apps: A Systematic Study of the Mobile App Ecosystem" (Petsas et al.,
// ACM IMC 2013).
//
// The package is a thin facade over the internal building blocks, exposing
// the workflows a downstream user needs:
//
//   - Synthetic appstores calibrated to the paper's four monitored
//     marketplaces (SlideMe, 1Mobile, AppChina, Anzhi): GenerateStore and
//     SimulateMarket.
//   - The three appstore workload models — ZIPF, ZIPF-at-most-once and the
//     paper's APP-CLUSTERING — as Monte Carlo simulators and analytic
//     predictors: NewWorkload, PredictCurve.
//   - Model fitting against observed rank-downloads curves (Figure 8-10):
//     FitModels.
//   - Temporal-affinity analysis of comment streams (§4): AnalyzeAffinity.
//   - App-delivery cache simulation (Figure 19): CacheSweep.
//   - Pricing and revenue analysis (§6): PricingReport.
//   - The full per-figure experiment suite: RunExperiment.
//
// Everything is deterministic in an explicit 64-bit seed, and the Monte
// Carlo compute paths are parallel without giving that up: each simulated
// user draws from a split RNG stream, so Workload.RunParallel, FitModels
// (FitSpec.Workers) and the experiment suite (ExperimentConfig.Workers)
// produce byte-identical results for any worker count. See DESIGN.md §3d
// for the contract and EXPERIMENTS.md for paper-vs-measured results.
package planetapps

import (
	"fmt"
	"io"

	"planetapps/internal/affinity"
	"planetapps/internal/cache"
	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/dist"
	"planetapps/internal/experiments"
	"planetapps/internal/marketsim"
	"planetapps/internal/model"
	"planetapps/internal/pricing"
	"planetapps/internal/snapshot"
	"planetapps/internal/trace"
)

// Re-exported core types. The facade deliberately aliases rather than
// wraps: the internal packages are the implementation, these names are the
// API.
type (
	// Catalog is a synthetic appstore catalog (apps, categories,
	// developers).
	Catalog = catalog.Catalog
	// Profile describes a store population; see Profiles.
	Profile = catalog.Profile
	// Market is a running day-by-day appstore market simulation.
	Market = marketsim.Market
	// MarketConfig configures SimulateMarket.
	MarketConfig = marketsim.Config
	// Series is a sequence of daily store snapshots.
	Series = snapshot.Series
	// RankCurve is a descending rank-vs-downloads curve.
	RankCurve = dist.RankCurve
	// Workload is a Monte Carlo simulator for one download model.
	Workload = model.Simulator
	// WorkloadConfig parameterizes a workload model (Table 2).
	WorkloadConfig = model.Config
	// ModelKind selects ZIPF, ZIPF-at-most-once or APP-CLUSTERING.
	ModelKind = model.Kind
	// FitResult is a fitted model with its Eq. 6 distance.
	FitResult = model.FitResult
	// FitSpec is a parameter grid for FitModels.
	FitSpec = model.FitSpec
	// AffinityAnalysis is the temporal-affinity study output.
	AffinityAnalysis = affinity.Analysis
	// Comment is one user comment with rating and timestamp.
	Comment = comments.Comment
	// PricingDataset couples a catalog with per-app downloads.
	PricingDataset = pricing.Dataset
	// CachePolicy is a cache replacement policy under simulation, keyed by
	// app id.
	CachePolicy = cache.Policy[int32]
	// SweepPoint is one cache-size measurement of a Figure 19 sweep.
	SweepPoint = cache.SweepPoint
	// ExperimentResult is a runnable paper experiment's result.
	ExperimentResult = experiments.Result
)

// Model kinds.
const (
	ZIPF           = model.Zipf
	ZIPFAtMostOnce = model.ZipfAtMostOnce
	APPClustering  = model.AppClustering
)

// Profiles returns the named store profiles calibrated to the paper's four
// marketplaces ("slideme", "1mobile", "appchina", "anzhi").
func Profiles() map[string]Profile {
	out := make(map[string]Profile, len(catalog.Profiles))
	for k, v := range catalog.Profiles {
		out[k] = v
	}
	return out
}

// StoreProfile returns one named profile, or an error listing the valid
// names.
func StoreProfile(name string) (Profile, error) {
	p, ok := catalog.Profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("planetapps: unknown store %q (have %v)", name, catalog.ProfileNames())
	}
	return p, nil
}

// GenerateStore builds a synthetic catalog for the profile,
// deterministically from the seed.
func GenerateStore(p Profile, seed uint64) (*Catalog, error) {
	return catalog.Generate(p, seed)
}

// SimulateMarket runs a full market simulation (arrivals, updates, price
// drift, clustering-driven downloads) and returns the market with its daily
// snapshot series.
func SimulateMarket(cfg MarketConfig, seed uint64) (*Market, *Series, error) {
	m, err := marketsim.New(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	s, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	return m, s, nil
}

// DefaultMarketConfig returns the calibrated market configuration for a
// profile.
func DefaultMarketConfig(p Profile) MarketConfig {
	return marketsim.DefaultConfig(p)
}

// NewWorkload builds a Monte Carlo workload simulator for the given model
// kind and configuration.
func NewWorkload(kind ModelKind, cfg WorkloadConfig) (*Workload, error) {
	return model.NewSimulator(kind, cfg)
}

// PredictCurve returns the analytic expected rank-downloads curve of a
// model configuration.
func PredictCurve(kind ModelKind, cfg WorkloadConfig) RankCurve {
	return model.PredictCurve(kind, cfg)
}

// DefaultFitSpec returns the standard fitting grid covering the paper's
// reported parameter ranges.
func DefaultFitSpec() FitSpec { return model.DefaultFitSpec() }

// FitModels fits all three models to an observed curve (Monte Carlo
// refined) and returns them sorted best-first, reproducing the Figure 8/9
// methodology.
func FitModels(observed RankCurve, spec FitSpec, seed uint64) ([]FitResult, error) {
	return model.FitAllMC(observed, spec, seed)
}

// ObservedCurve converts raw per-app download counts into a rank curve,
// dropping zero-download apps (the form measured curves take).
func ObservedCurve(downloads []int64) RankCurve {
	vals := make([]float64, 0, len(downloads))
	for _, d := range downloads {
		if d > 0 {
			vals = append(vals, float64(d))
		}
	}
	return dist.NewRankCurve(vals)
}

// GenerateComments produces a comment stream over a catalog with the §4
// behaviour planted (clustering effect, heavy-tailed comment counts, spam
// users).
func GenerateComments(c *Catalog, users int, seed uint64) ([]Comment, error) {
	return comments.Generate(c, comments.DefaultGenConfig(users), seed)
}

// AnalyzeAffinity runs the paper's full §4 pipeline on a comment stream:
// spam filtering, app strings, category strings, affinity at depths 1-3
// with exact random-walk baselines.
func AnalyzeAffinity(c *Catalog, stream []Comment) (*AffinityAnalysis, error) {
	filtered := comments.Filter(stream, 80)
	catStrings := comments.CategoryStrings(c, comments.AppStrings(filtered))
	return affinity.Analyze(catStrings, c.CategorySizes(), []int{1, 2, 3}, 10)
}

// CacheSweep reproduces the Figure 19 study: an LRU app cache swept over
// the given sizes (percent of apps) under all three workload models.
func CacheSweep(cfg WorkloadConfig, sizesPct []float64, seed uint64) ([]SweepPoint, error) {
	return cache.SweepLRU(cfg, sizesPct, seed)
}

// PricingReport bundles the §6 analyses over a store dataset.
type PricingReport struct {
	// FreeCurve and PaidCurve are the Figure 11 popularity curves.
	FreeCurve, PaidCurve RankCurve
	// PriceDownloadsR is the Figure 12 price-popularity correlation.
	PriceDownloadsR float64
	// Incomes is the per-developer income list (Figure 13/14).
	Incomes []pricing.DeveloperIncome
	// IncomeAppsR is the Figure 14 income-vs-portfolio correlation.
	IncomeAppsR float64
	// BreakEven is the Eq. 7 break-even ad income per download.
	BreakEven float64
	// BreakEvenByTier splits break-even income by popularity tier
	// (Figure 17).
	BreakEvenByTier map[pricing.PopularityTier]float64
}

// AnalyzePricing runs the §6 analyses over a catalog with measured
// downloads. The catalog must contain paid apps (use the "slideme"
// profile).
func AnalyzePricing(c *Catalog, downloads []int64) (*PricingReport, error) {
	ds := pricing.Dataset{Catalog: c, Downloads: downloads}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	free, paid := ds.SplitCurves()
	bins, err := pricing.AnalyzePrices(ds)
	if err != nil {
		return nil, err
	}
	incomes, err := pricing.Incomes(ds)
	if err != nil {
		return nil, err
	}
	be, err := pricing.BreakEvenAdIncome(ds)
	if err != nil {
		return nil, err
	}
	tiers, err := pricing.BreakEvenByTier(ds)
	if err != nil {
		return nil, err
	}
	return &PricingReport{
		FreeCurve:       free,
		PaidCurve:       paid,
		PriceDownloadsR: bins.PriceDownloadsR,
		Incomes:         incomes,
		IncomeAppsR:     pricing.IncomeAppsCorrelation(incomes),
		BreakEven:       be,
		BreakEvenByTier: tiers,
	}, nil
}

// RecordTrace generates a workload stream and writes it to w in the
// compact binary trace format (internal/trace), returning the event count.
// Traces let generated appstore workloads drive external systems.
func RecordTrace(w io.Writer, sim *Workload, seed uint64) (int64, error) {
	return trace.Record(w, sim, seed)
}

// ReplayTrace feeds every event of a recorded trace to fn (stop early by
// returning false), returning the number of events delivered.
func ReplayTrace(r io.Reader, fn func(model.Event) bool) (int64, error) {
	return trace.Replay(r, fn)
}

// ExperimentIDs lists the runnable paper experiments (T1, F2..F19, X1..X4).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentConfig scales the experiment suite; zero fields take defaults.
type ExperimentConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Scale multiplies store populations (default 1.0).
	Scale float64
	// Days is the simulated measurement period (default 60).
	Days int
	// CommentUsers sizes the §4 behaviour study (default 30000).
	CommentUsers int
	// Workers bounds per-experiment parallelism (default GOMAXPROCS).
	// Results are byte-identical for any value; see DESIGN.md §3d.
	Workers int
}

// NewExperimentSuite builds a suite for RunExperiment. Results are cached
// across experiments within a suite.
func NewExperimentSuite(cfg ExperimentConfig) (*experiments.Suite, error) {
	def := experiments.DefaultConfig()
	if cfg.Seed != 0 {
		def.Seed = cfg.Seed
	}
	if cfg.Scale != 0 {
		def.Scale = cfg.Scale
	}
	if cfg.Days != 0 {
		def.Days = cfg.Days
	}
	if cfg.CommentUsers != 0 {
		def.CommentUsers = cfg.CommentUsers
	}
	if cfg.Workers != 0 {
		def.Workers = cfg.Workers
	}
	return experiments.NewSuite(def)
}

// RunExperiment executes one paper experiment against a suite and writes
// its rendered tables to w (pass nil to skip rendering).
func RunExperiment(s *experiments.Suite, id string, w io.Writer) (ExperimentResult, error) {
	res, err := experiments.Run(s, id)
	if err != nil {
		return nil, err
	}
	if w != nil {
		for _, t := range res.Tables() {
			if _, err := t.WriteTo(w); err != nil {
				return nil, err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
