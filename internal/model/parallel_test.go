package model

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"planetapps/internal/dist"
)

// TestForEachDeterministic holds the one fan-out to its contract at every
// worker bound: each index runs exactly once, n = 0 calls nothing, and the
// lowest-index error wins even when a higher index fails first.
func TestForEachDeterministic(t *testing.T) {
	const n = 8
	for _, workers := range []int{0, 1, 2, n, n + 3} {
		if err := ForEach(workers, 0, func(int) error { t.Error("fn called with n = 0"); return nil }); err != nil {
			t.Fatalf("workers=%d, n=0: %v", workers, err)
		}
		// Index 6 fails; when a second worker exists, index 2 fails only
		// after it.
		concurrent := workers >= 2 || workers <= 0 && runtime.GOMAXPROCS(0) >= 2
		lo, hi := errors.New("index 2"), errors.New("index 6")
		hiFailed := make(chan struct{})
		var calls [n]atomic.Int32
		err := ForEach(workers, n, func(i int) error {
			calls[i].Add(1)
			switch i {
			case 2:
				if concurrent {
					<-hiFailed
				}
				return lo
			case 6:
				close(hiFailed)
				return hi
			}
			return nil
		})
		if err != lo {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, lo)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunParallelWorkerInvariance is the core contract of the parallel
// engine: for a fixed seed, RunParallel must produce byte-identical results
// for every worker count, and match Run exactly. Run under -race this also
// shakes out unsynchronized sharing between shards.
func TestRunParallelWorkerInvariance(t *testing.T) {
	cfg := smallCfg()
	for _, k := range Kinds {
		s, err := NewSimulator(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Run(99)
		for _, workers := range []int{1, 2, 3, 5, 8} {
			got := s.RunParallel(99, workers)
			if got.Total != want.Total || !reflect.DeepEqual(got.Downloads, want.Downloads) {
				t.Fatalf("%s: RunParallel(seed=99, workers=%d) differs from Run", k, workers)
			}
		}
	}
}

// TestRunParallelWorkerEdgeCases covers worker counts outside [1, Users].
func TestRunParallelWorkerEdgeCases(t *testing.T) {
	cfg := smallCfg()
	cfg.Users = 3
	s, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run(5)
	// More workers than users, and workers <= 0 (meaning GOMAXPROCS).
	for _, workers := range []int{64, 0, -1} {
		got := s.RunParallel(5, workers)
		if got.Total != want.Total || !reflect.DeepEqual(got.Downloads, want.Downloads) {
			t.Fatalf("RunParallel(workers=%d) differs from Run", workers)
		}
	}
}

// parallelFitObserved builds a small deterministic observed curve shared by
// the fit-invariance tests and benchmarks.
func parallelFitObserved(t testing.TB) dist.RankCurve {
	t.Helper()
	cfg := Config{
		Apps: 600, Users: 8000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
	s, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(17).Curve()
}

// TestFitMCWorkerInvariance: FitMC must select the exact same candidate and
// distance for any Workers value (including the default 0).
func TestFitMCWorkerInvariance(t *testing.T) {
	observed := parallelFitObserved(t)
	spec := DefaultFitSpec()
	spec.Workers = 1
	want, err := FitMC(AppClustering, observed, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		spec.Workers = workers
		got, err := FitMC(AppClustering, observed, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("FitMC(Workers=%d) = %+v, want %+v", workers, got, want)
		}
	}
}

// TestFitAllMCWorkerInvariance: the concurrent per-kind fan-out must return
// the same sorted fits as a Workers=1 evaluation.
func TestFitAllMCWorkerInvariance(t *testing.T) {
	observed := parallelFitObserved(t)
	spec := DefaultFitSpec()
	spec.Workers = 1
	want, err := FitAllMC(observed, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	got, err := FitAllMC(observed, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FitAllMC(Workers=8) = %+v, want %+v", got, want)
	}
}

// TestMCDistanceDeterministic: the concurrent Monte Carlo runs inside
// MCDistance must sum in run order — repeated calls agree bit-for-bit.
func TestMCDistanceDeterministic(t *testing.T) {
	observed := parallelFitObserved(t)
	cfg := Config{
		Apps: len(observed.Downloads), Users: 8000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
	a, err := MCDistance(AppClustering, cfg, observed, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MCDistance(AppClustering, cfg, observed, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("MCDistance not deterministic: %v vs %v", a, b)
	}
}

// TestUserSweepMCDeterministic: the fraction fan-out preserves order and
// determinism.
func TestUserSweepMCDeterministic(t *testing.T) {
	observed := parallelFitObserved(t)
	base := Config{
		Apps: len(observed.Downloads), Users: 8000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
	fractions := []float64{0.5, 1, 2}
	a, err := UserSweepMC(AppClustering, observed, base, fractions, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UserSweepMC(AppClustering, observed, base, fractions, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("UserSweepMC not deterministic: %v vs %v", a, b)
	}
}
