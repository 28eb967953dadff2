package experiments

import (
	"reflect"
	"sync"
	"testing"
)

// TestSuiteConcurrentUse drives one shared Suite from parallel goroutines —
// the access pattern the per-store single-flight cache exists for — and
// asserts every result is byte-identical to a fresh single-threaded
// (Workers=1) Suite. Under -race this doubles as the data-race proof for
// the suite's lazy market/comment computation, and the equality check is
// the end-to-end worker-count-invariance guarantee for the experiment
// layer.
func TestSuiteConcurrentUse(t *testing.T) {
	// A dedicated reduced config rather than the shared test suite: the
	// invariance property is config-independent, and this test pays for
	// every experiment twice (shared + fresh suite) under -race.
	cfg := Config{Seed: 11, Scale: 0.25, Days: 20, CommentUsers: 2000}
	shared, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A cheap but representative slice of the registry: market aggregation
	// (T1 touches all four stores), curve shapes (F2/F3), snapshots (F4),
	// comment data (F5), a Monte Carlo model experiment (X1), and the cache
	// policy comparison (X2). F5 and X2 have both harboured map-iteration
	// nondeterminism that only this equality check caught — keep them in.
	ids := []string{"T1", "F2", "F3", "F4", "F5", "X1", "X2"}

	got := make([]Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(shared, id)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}

	cfg.Workers = 1
	fresh, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := Run(fresh, id)
		if err != nil {
			t.Fatalf("%s (fresh): %v", id, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: concurrent shared-suite result differs from fresh single-threaded suite", id)
		}
	}
}

// TestSuiteMarketSingleFlight asserts concurrent requests for one store
// coalesce onto a single market simulation (same *Dataset out of every
// call) while requests for different stores proceed independently.
func TestSuiteMarketSingleFlight(t *testing.T) {
	s, err := NewSuite(Config{Seed: 11, Scale: 0.25, Days: 20, CommentUsers: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	stores := s.StoreNames()
	runs := make([]*Dataset, callers*len(stores))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		for j, store := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run, err := s.Store(store)
				if err != nil {
					t.Error(err)
					return
				}
				runs[c*len(stores)+j] = run
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for c := 1; c < callers; c++ {
		for j := range stores {
			if runs[c*len(stores)+j] != runs[j] {
				t.Fatalf("store %s: caller %d got a different market run", stores[j], c)
			}
		}
	}
}

// TestSuiteWorkersValidation covers the new Workers knob.
func TestSuiteWorkersValidation(t *testing.T) {
	if _, err := NewSuite(Config{Scale: 1, Days: 30, CommentUsers: 1000, Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	s, err := NewSuite(Config{Scale: 1, Days: 30, CommentUsers: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Workers < 1 {
		t.Fatalf("default Workers = %d, want >= 1", s.cfg.Workers)
	}
}
