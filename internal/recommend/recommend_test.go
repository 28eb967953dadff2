package recommend

import (
	"testing"

	"planetapps/internal/model"
	"planetapps/internal/rng"
)

func TestPopularityBasics(t *testing.T) {
	// Downloads make app 2 most popular, then 0, then 1.
	p := NewPopularity(RankByCount([]int64{50, 10, 100}))
	got := p.Select(nil, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("recommendations = %v", got)
	}
	// Owned apps are excluded.
	got = p.Select([]int32{2}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("with owned: %v", got)
	}
	// k larger than candidates.
	got = p.Select([]int32{0, 1, 2}, 5)
	if len(got) != 0 {
		t.Fatalf("fully-owned user got %v", got)
	}
}

func TestCollaborativeFindsNeighbourApps(t *testing.T) {
	// Users 0 and 1 share apps {1,2}; user 0 also has 3. A new user with
	// {1,2} should be recommended 3.
	c := NewCollaborative([][]int32{
		{1, 2, 3},
		{1, 2},
		{7, 8}, // unrelated user
	})
	got := c.Select([]int32{1, 2}, 1)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("recommendations = %v", got)
	}
	// A user with no overlap gets nothing.
	if got := c.Select([]int32{99}, 3); len(got) != 0 {
		t.Fatalf("no-overlap user got %v", got)
	}
	if got := c.Select(nil, 3); got != nil {
		t.Fatalf("empty history got %v", got)
	}
}

func TestCollaborativeWeighting(t *testing.T) {
	// The more similar neighbour's exclusive app should win the vote.
	c := NewCollaborative([][]int32{
		{1, 2, 3, 10}, // similar to target {1,2,3}: jaccard 3/4
		{1, 20},       // less similar: jaccard 1/4
	})
	got := c.Select([]int32{1, 2, 3}, 1)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("recommendations = %v", got)
	}
}

func TestClusterAwarePrefersRecentCategory(t *testing.T) {
	// Apps 0..9: even apps category 0, odd apps category 1.
	// Downloads make app 0 and 1 the category heads.
	downloads := []int64{100, 90, 10, 9, 8, 7, 6, 5, 4, 3}
	catOf := func(a int32) int32 { return a % 2 }
	r := NewClusterAware(downloads, catOf)
	// User's last download is app 3 (category 1): category 1's head (app
	// 1) should be suggested first.
	got := r.Select([]int32{2, 3}, 2)
	if len(got) < 1 || got[0] != 1 {
		t.Fatalf("recommendations = %v", got)
	}
	if r.Select(nil, 3) != nil {
		t.Fatal("empty history should yield nothing")
	}
}

func TestClusterAwareSkipsOwned(t *testing.T) {
	downloads := []int64{100, 90, 80, 70}
	catOf := func(a int32) int32 { return 0 } // single category
	r := NewClusterAware(downloads, catOf)
	got := r.Select([]int32{0, 1}, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("recommendations = %v", got)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(nil, nil, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEvaluateCountsTrials(t *testing.T) {
	p := NewPopularity(RankByCount([]int64{5, 4, 3, 2, 1}))
	histories := [][]int32{{0, 1, 2}, {3, 4}}
	res, err := Evaluate([]Selector{p}, histories, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// History 1 has splits at 1 and 2; history 2 at 1: 3 trials.
	if res[0].Trials != 3 {
		t.Fatalf("trials = %d", res[0].Trials)
	}
	if res[0].Hits < 1 {
		t.Fatalf("popularity should predict some next downloads: %+v", res[0])
	}
}

// clusteringHistories simulates APP-CLUSTERING user histories and splits
// them into train/test.
func clusteringHistories(t *testing.T) (train, test [][]int32, downloads []int64, cm *model.ClusterMap) {
	t.Helper()
	cfg := model.Config{
		Apps: 1500, Users: 3000, DownloadsPerUser: 8,
		ZipfGlobal: 1.2, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 25,
	}
	sim, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[int32][]int32{}
	downloads = make([]int64, cfg.Apps)
	sim.Stream(11, func(e model.Event) bool {
		perUser[e.User] = append(perUser[e.User], e.App)
		downloads[e.App]++
		return true
	})
	r := rng.New(99)
	for _, h := range perUser {
		if len(h) < 3 {
			continue
		}
		if r.Bool(0.2) {
			test = append(test, h)
		} else {
			train = append(train, h)
		}
	}
	return train, test, downloads, model.RoundRobin(cfg.Apps, cfg.Clusters)
}

func TestClusterAwareBeatsPopularityOnClusteredUsers(t *testing.T) {
	// The paper's §7 argument: a recommender exploiting temporal category
	// affinity predicts the next download better than pure popularity.
	train, test, downloads, cm := clusteringHistories(t)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("no histories")
	}
	pop := NewPopularity(RankByCount(downloads))
	ca := NewClusterAware(downloads, func(a int32) int32 { return cm.OfApp[a] })
	res, err := Evaluate([]Selector{pop, ca}, test, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EvalResult{}
	for _, r := range res {
		byName[r.Recommender] = r
	}
	if byName["cluster-aware"].HitRate() <= byName["popularity"].HitRate() {
		t.Fatalf("cluster-aware %.1f%% did not beat popularity %.1f%%",
			byName["cluster-aware"].HitRate(), byName["popularity"].HitRate())
	}
}

func TestCollaborativeBeatsRandomBaseline(t *testing.T) {
	train, test, _, _ := clusteringHistories(t)
	cf := NewCollaborative(train)
	res, err := Evaluate([]Selector{cf}, test, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Random guessing over 1500 apps with k=10 would hit ~0.7%; the
	// collaborative filter must do far better.
	if res[0].HitRate() < 3 {
		t.Fatalf("collaborative hit rate %.2f%% barely above chance", res[0].HitRate())
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	_, test, downloads, cm := clusteringHistories(t)
	ca := NewClusterAware(downloads, func(a int32) int32 { return cm.OfApp[a] })
	a, _ := Evaluate([]Selector{ca}, test, 5, 2)
	b, _ := Evaluate([]Selector{ca}, test, 5, 2)
	if a[0] != b[0] {
		t.Fatalf("evaluation not deterministic: %+v vs %+v", a[0], b[0])
	}
}
