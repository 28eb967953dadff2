package model

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"planetapps/internal/dist"
)

// FitSpec defines the parameter grid a Fit sweeps, mirroring the paper's
// procedure of "running simulations with all parameter combinations and
// measuring the distance from actual data" (§5.2.1). The analytic curve
// (Eq. 5) stands in for a Monte Carlo run at each grid point, which is what
// makes exhaustive sweeps cheap; FitResult records the best point. The
// clustering axes of the grid are fixed (fitZipfCluster, fitClusterP,
// fitClusters).
type FitSpec struct {
	// ZipfGlobal values (zr) to try.
	ZipfGlobal []float64
	// Users values (U) to try. A zero entry is replaced by the observed
	// top-app downloads (the paper's Figure 10 heuristic).
	Users []int
	// Workers bounds the number of Monte Carlo candidate evaluations FitMC
	// runs concurrently (FitAllMC passes it through to each per-kind fit).
	// Zero means runtime.GOMAXPROCS(0). Fit results are invariant to
	// Workers; the knob only controls scheduling.
	Workers int
}

// DefaultFitSpec covers the parameter ranges the paper reports as best fits
// (zr 0.9-1.7, zc 1.2-1.5, p 0.9-0.95) with some margin.
func DefaultFitSpec() FitSpec {
	return FitSpec{
		ZipfGlobal: []float64{0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8},
		Users:      []int{0},
	}
}

// The fitter's fixed grid for the APP-CLUSTERING parameters, and its floor.
var (
	// fitZipfCluster are the zc values tried.
	fitZipfCluster = []float64{1.0, 1.2, 1.4, 1.5, 1.6}
	// fitClusterP are the p values tried.
	fitClusterP = []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
)

const (
	// fitClusters is C, the paper's simulation default.
	fitClusters = 30
	// minObserved restricts the fitting distance to the ranks whose
	// observed downloads reach this floor. Laptop-scale curves have deep
	// tails of 1-2 downloads where the analytic expectation is a fraction
	// below one; comparing those ranks with Eq. 6 measures Poisson
	// discreteness rather than model quality, so the grid search uses the
	// well-populated prefix and the final reported distance comes from a
	// Monte Carlo run over the full curve (FitMC).
	minObserved = 3
)

// FitResult is the best grid point found for one model kind.
type FitResult struct {
	Kind     Kind
	Config   Config
	Distance float64
}

// String renders the fitted parameters the way the paper's figure legends do.
func (f FitResult) String() string {
	switch f.Kind {
	case AppClustering:
		return fmt.Sprintf("%s (zr=%.2f, p=%.2f, zc=%.2f, U=%d) distance=%.3f",
			f.Kind, f.Config.ZipfGlobal, f.Config.ClusterP, f.Config.ZipfCluster, f.Config.Users, f.Distance)
	default:
		return fmt.Sprintf("%s (zr=%.2f, U=%d) distance=%.3f", f.Kind, f.Config.ZipfGlobal, f.Config.Users, f.Distance)
	}
}

// Fit sweeps the grid for the given kind against an observed rank curve and
// returns the minimum-distance parameters. The observed curve's length sets
// A; its total and top value seed d and the U=0 heuristic.
func Fit(kind Kind, observed dist.RankCurve, spec FitSpec) (FitResult, error) {
	cands, err := fitCandidates(kind, observed, spec)
	if err != nil {
		return FitResult{}, err
	}
	return cands[0], nil
}

// fitCandidates runs the analytic grid search and returns one candidate per
// (zr, U) pair — the analytically best (zc, p) at that point — sorted by
// ascending analytic distance. Keeping per-zr champions preserves the
// diversity FitMC needs: the analytic prefix metric is a good local judge
// of (zc, p) but can misrank zr by a notch.
func fitCandidates(kind Kind, observed dist.RankCurve, spec FitSpec) ([]FitResult, error) {
	apps := len(observed.Downloads)
	if apps == 0 {
		return nil, fmt.Errorf("model: empty observed curve")
	}
	total := observed.Total()
	if total <= 0 {
		return nil, fmt.Errorf("model: observed curve has no downloads")
	}
	users := append([]int(nil), spec.Users...)
	if len(users) == 0 {
		users = []int{0}
	}
	for i, u := range users {
		if u == 0 {
			users[i] = int(observed.Top())
			if users[i] < 1 {
				users[i] = 1
			}
		}
	}
	zcs, ps := fitZipfCluster, fitClusterP
	if kind != AppClustering {
		zcs = []float64{0}
		ps = []float64{0}
	}
	if len(spec.ZipfGlobal) == 0 {
		return nil, fmt.Errorf("model: FitSpec has no ZipfGlobal values")
	}

	// Fit on the well-populated prefix (see minObserved).
	prefix := len(observed.Downloads)
	for prefix > 0 && observed.Downloads[prefix-1] < minObserved {
		prefix--
	}
	if prefix < 2 {
		prefix = min(len(observed.Downloads), 2)
	}

	var cands []FitResult
	for _, u := range users {
		d := total / float64(u)
		for _, zr := range spec.ZipfGlobal {
			best := FitResult{Kind: kind, Distance: -1}
			for _, zc := range zcs {
				for _, p := range ps {
					cfg := Config{
						Apps: apps, Users: u, DownloadsPerUser: d,
						ZipfGlobal: zr, ZipfCluster: zc, ClusterP: p,
						Clusters: fitClusters,
					}
					if err := cfg.Validate(kind); err != nil {
						return nil, err
					}
					dst := prefixDistance(observed, PredictCurve(kind, cfg), prefix)
					if best.Distance < 0 || dst < best.Distance {
						best.Config = cfg
						best.Distance = dst
					}
				}
			}
			cands = append(cands, best)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Distance < cands[j].Distance })
	return cands, nil
}

// prefixDistance is Eq. 6 restricted to the first n ranks.
func prefixDistance(observed, predicted dist.RankCurve, n int) float64 {
	if n > len(observed.Downloads) {
		n = len(observed.Downloads)
	}
	o := dist.RankCurve{Downloads: observed.Downloads[:n]}
	p := predicted
	if n < len(p.Downloads) {
		p = dist.RankCurve{Downloads: p.Downloads[:n]}
	}
	return dist.MeanRelativeError(o, p)
}

// mcDistanceRuns controls variance reduction in MCDistance: the reported
// distance is the mean over this many independent simulation runs.
const mcDistanceRuns = 3

// MCDistance runs Monte Carlo simulations of the configured model and
// returns the mean Eq. 6 distance between the simulated and observed rank
// curves — the comparison the paper's §5.2 actually performs. Simulated
// zero-download tail ranks are trimmed the way measured curves are.
//
// The independent runs execute concurrently; per-run distances land in
// run-indexed slots and are summed in run order, so the result is
// byte-identical to a sequential evaluation.
func MCDistance(kind Kind, cfg Config, observed dist.RankCurve, seed uint64) (float64, error) {
	sim, err := NewSimulator(kind, cfg)
	if err != nil {
		return 0, err
	}
	var dists [mcDistanceRuns]float64
	var wg sync.WaitGroup
	for run := 0; run < mcDistanceRuns; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			curve := sim.Run(seed + uint64(run)*0x9e3779b97f4a7c15).Curve()
			n := len(curve.Downloads)
			for n > 0 && curve.Downloads[n-1] <= 0 {
				n--
			}
			dists[run] = dist.MeanRelativeError(observed, dist.RankCurve{Downloads: curve.Downloads[:n]})
		}()
	}
	wg.Wait()
	var sum float64
	for _, d := range dists {
		sum += d
	}
	return sum / mcDistanceRuns, nil
}

// fitWorkers resolves a FitSpec.Workers value against the available
// parallelism and the amount of independent work.
func fitWorkers(spec FitSpec, jobs int) int {
	w := spec.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// maxMCCandidates bounds the Monte Carlo refinement in FitMC.
const maxMCCandidates = 12

// FitMC shortlists parameters with the analytic grid search (one champion
// per zr value) and then selects among them by the distance of Monte Carlo
// runs against the full observed curve, mirroring the paper's
// simulate-and-compare procedure while keeping the sweep cheap.
//
// Candidates are evaluated on a pool of spec.Workers goroutines. Distances
// land in candidate-indexed slots and the winner is selected by a scan in
// shortlist order (strict <), so the chosen fit is byte-identical to a
// sequential evaluation for any worker count; on error, the lowest-index
// candidate's error is returned.
func FitMC(kind Kind, observed dist.RankCurve, spec FitSpec, seed uint64) (FitResult, error) {
	cands, err := fitCandidates(kind, observed, spec)
	if err != nil {
		return FitResult{}, err
	}
	if len(cands) > maxMCCandidates {
		cands = cands[:maxMCCandidates]
	}
	dists := make([]float64, len(cands))
	errs := make([]error, len(cands))
	workers := fitWorkers(spec, len(cands))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				dists[i], errs[i] = MCDistance(kind, cands[i].Config, observed, seed)
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	best := FitResult{Kind: kind, Distance: -1}
	for i, c := range cands {
		if errs[i] != nil {
			return FitResult{}, errs[i]
		}
		if best.Distance < 0 || dists[i] < best.Distance {
			best.Config = c.Config
			best.Distance = dists[i]
		}
	}
	return best, nil
}

// FitAllMC runs FitMC for every model kind concurrently and returns the
// fits sorted best-first. Per-kind results land in kind-indexed slots before
// sorting, so the output is independent of goroutine scheduling; on error,
// the first kind's (in Kinds order) error wins.
func FitAllMC(observed dist.RankCurve, spec FitSpec, seed uint64) ([]FitResult, error) {
	out := make([]FitResult, len(Kinds))
	errs := make([]error, len(Kinds))
	var wg sync.WaitGroup
	for i, k := range Kinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = FitMC(k, observed, spec, seed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out, nil
}

// UserSweepMC evaluates the Monte Carlo distance while varying the user
// population, holding the other parameters at base (Figure 10's sweep).
// fractions scale the observed top-app downloads; d is rescaled so the
// total simulated volume tracks the observed total.
func UserSweepMC(kind Kind, observed dist.RankCurve, base Config, fractions []float64, seed uint64) ([]float64, error) {
	top := observed.Top()
	total := observed.Total()
	if top <= 0 || total <= 0 {
		return nil, fmt.Errorf("model: observed curve has no downloads")
	}
	out := make([]float64, len(fractions))
	errs := make([]error, len(fractions))
	var wg sync.WaitGroup
	for i, f := range fractions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Users = int(f * top)
			if cfg.Users < 1 {
				cfg.Users = 1
			}
			cfg.DownloadsPerUser = total / float64(cfg.Users)
			out[i], errs[i] = MCDistance(kind, cfg, observed, seed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
