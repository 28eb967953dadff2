package prefetch

import (
	"math"
	"testing"

	"planetapps/internal/model"
	"planetapps/internal/recommend"
)

func TestNoneNeverHits(t *testing.T) {
	cfg := model.Config{
		Apps: 200, Users: 300, DownloadsPerUser: 5,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 10,
	}
	sim, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(None{}, sim, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Prefetched != 0 {
		t.Fatalf("none strategy hit/prefetched: %+v", res)
	}
	if res.Downloads == 0 {
		t.Fatal("nothing scored")
	}
	if res.HitRate() != 0 || res.TransfersPerHit() != 0 {
		t.Fatalf("metrics wrong: %+v", res)
	}
}

// TestGlobalTopSelect pins the popularity-only baseline as the simulator
// uses it: recommend.Popularity over an explicit rank list.
func TestGlobalTopSelect(t *testing.T) {
	g := recommend.NewPopularity([]int32{5, 3, 1, 0})
	got := g.Select([]int32{5}, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("selection = %v", got)
	}
}

func TestCategoryTopSelect(t *testing.T) {
	cm := model.RoundRobin(20, 4) // cluster c members: c, c+4, c+8, ...
	s := NewCategoryTop(cm)
	// Last download app 6 -> cluster 2; top unowned members of cluster 2
	// are 2, 10, 14 (6 owned).
	got := s.Select([]int32{6}, 3)
	want := []int32{2, 10, 14}
	if len(got) != 3 {
		t.Fatalf("selection = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selection = %v, want %v", got, want)
		}
	}
	if s.Select(nil, 3) != nil {
		t.Fatal("empty history should select nothing")
	}
}

func TestCategoryTopFallsBackToEarlierCategories(t *testing.T) {
	cm := model.RoundRobin(8, 4) // clusters of 2
	s := NewCategoryTop(cm)
	// History: app 1 (cluster 1), then app 2 (cluster 2). Budget 3 needs
	// cluster 2's unowned member (6) plus cluster 1's (5).
	got := s.Select([]int32{1, 2}, 3)
	if len(got) < 2 || got[0] != 6 || got[1] != 5 {
		t.Fatalf("selection = %v", got)
	}
}

func TestSimulateBudgetZero(t *testing.T) {
	cfg := model.Config{
		Apps: 100, Users: 100, DownloadsPerUser: 4,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 5,
	}
	sim, _ := model.NewSimulator(model.AppClustering, cfg)
	res, err := Simulate(NewCategoryTop(model.RoundRobin(100, 5)), sim, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Prefetched != 0 {
		t.Fatalf("zero budget produced activity: %+v", res)
	}
	if _, err := Simulate(None{}, sim, -1, 1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func prefetchCfg() model.Config {
	return model.Config{
		Apps: 2000, Users: 3000, DownloadsPerUser: 10,
		ZipfGlobal: 1.3, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
}

func TestCategoryTopBeatsGlobalTop(t *testing.T) {
	// The §7 claim: category-aware prefetching exploits temporal affinity
	// and beats popularity-only prefetching under the clustering workload.
	cfg := prefetchCfg()
	cm := model.RoundRobin(cfg.Apps, cfg.Clusters)
	ranked := make([]int32, cfg.Apps)
	for i := range ranked {
		ranked[i] = int32(i) // app index == global popularity rank
	}
	results, err := Compare([]recommend.Selector{
		None{},
		recommend.NewPopularity(ranked),
		NewCategoryTop(cm),
	}, cfg, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Strategy] = r
	}
	gt := byName["popularity"].HitRate()
	ct := byName["category-top"].HitRate()
	if ct <= gt {
		t.Fatalf("category-top %.1f%% did not beat popularity %.1f%%", ct, gt)
	}
	if gt <= 0 {
		t.Fatal("popularity never hit; simulation broken")
	}
}

func TestHitRateGrowsWithBudget(t *testing.T) {
	cfg := prefetchCfg()
	cm := model.RoundRobin(cfg.Apps, cfg.Clusters)
	var prev float64 = -1
	for _, budget := range []int{2, 8, 32} {
		sim, err := model.NewSimulator(model.AppClustering, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(NewCategoryTop(cm), sim, budget, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.HitRate() < prev-1 {
			t.Fatalf("hit rate fell with budget %d: %v -> %v", budget, prev, res.HitRate())
		}
		prev = res.HitRate()
	}
}

func TestTransfersPerHitFinite(t *testing.T) {
	cfg := prefetchCfg()
	cm := model.RoundRobin(cfg.Apps, cfg.Clusters)
	sim, _ := model.NewSimulator(model.AppClustering, cfg)
	res, err := Simulate(NewCategoryTop(cm), sim, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	tph := res.TransfersPerHit()
	if math.IsInf(tph, 1) || tph <= 0 {
		t.Fatalf("transfers per hit = %v", tph)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := prefetchCfg()
	cm := model.RoundRobin(cfg.Apps, cfg.Clusters)
	run := func() Result {
		sim, err := model.NewSimulator(model.AppClustering, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Simulate(NewCategoryTop(cm), sim, 10, 9)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
}
