package experiments

import (
	"sort"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/model"
	"planetapps/internal/prefetch"
	"planetapps/internal/recommend"
	"planetapps/internal/report"
	"planetapps/internal/rng"
)

func init() {
	register("X3", func(s *Suite) (Result, error) { return PrefetchX3(s) })
	register("X4", func(s *Suite) (Result, error) { return RecommendX4(s) })
}

// PrefetchX3Result is the §7 "effective prefetching" study: hit rate and
// transfer cost of prefetching strategies under the clustering workload.
type PrefetchX3Result struct {
	Budget  int
	Results []prefetch.Result
}

// Tables implements Result.
func (r *PrefetchX3Result) Tables() []*report.Table {
	t := report.NewTable("X3: prefetching under APP-CLUSTERING",
		"strategy", "budget", "hit rate %", "transfers per hit")
	for _, res := range r.Results {
		t.AddRow(res.Strategy, res.Budget, res.HitRate(), res.TransfersPerHit())
	}
	return []*report.Table{t}
}

// HitRate returns the named strategy's hit rate, or -1 when absent.
func (r *PrefetchX3Result) HitRate(strategy string) float64 {
	for _, res := range r.Results {
		if res.Strategy == strategy {
			return res.HitRate()
		}
	}
	return -1
}

// PrefetchX3 compares no prefetching, popularity-only prefetching and the
// paper's category-top prefetching.
func PrefetchX3(s *Suite) (*PrefetchX3Result, error) {
	if err := s.simulated("X3 simulates the model alone and reads no store"); err != nil {
		return nil, err
	}
	cfg := figure19Config(s)
	cm := model.RoundRobin(cfg.Apps, cfg.Clusters)
	ranked := make([]int32, cfg.Apps)
	for i := range ranked {
		ranked[i] = int32(i)
	}
	const budget = 10
	results, err := prefetch.Compare([]recommend.Selector{
		prefetch.None{},
		recommend.NewPopularity(ranked),
		prefetch.NewCategoryTop(cm),
	}, cfg, budget, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &PrefetchX3Result{Budget: budget, Results: results}, nil
}

// RecommendX4Result is the §7 "better recommendation systems" study:
// next-download hit rate of popularity, collaborative-filtering and
// cluster-aware recommenders over comment-derived user histories.
type RecommendX4Result struct {
	K       int
	Results []recommend.EvalResult
}

// Tables implements Result.
func (r *RecommendX4Result) Tables() []*report.Table {
	t := report.NewTable("X4: next-download prediction (top-k hit rate)",
		"recommender", "k", "trials", "hit rate %")
	for _, res := range r.Results {
		t.AddRow(res.Recommender, res.K, res.Trials, res.HitRate())
	}
	return []*report.Table{t}
}

// HitRate returns the named recommender's hit rate, or -1 when absent.
func (r *RecommendX4Result) HitRate(name string) float64 {
	for _, res := range r.Results {
		if res.Recommender == name {
			return res.HitRate()
		}
	}
	return -1
}

// RecommendX4 trains on the behaviour-study comment histories and evaluates
// next-download prediction.
func RecommendX4(s *Suite) (*RecommendX4Result, error) {
	cat, stream, err := s.CommentData()
	if err != nil {
		return nil, err
	}
	filtered := comments.Filter(stream, maxCommentsFilter)
	appStrings := comments.AppStrings(filtered)
	// Per-app comment counts proxy download popularity for the
	// recommenders' ranking inputs.
	downloads := make([]int64, cat.NumApps())
	for _, cm := range filtered {
		downloads[int(cm.App)]++
	}
	// Deterministic train/test split.
	r := rng.New(s.cfg.Seed + 0x7265636f) // "reco"
	var train, test [][]int32
	users := make([]int32, 0, len(appStrings))
	for u := range appStrings {
		users = append(users, u)
	}
	// Sort for determinism (map iteration order is random).
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		h := appStrings[u]
		if len(h) < 3 {
			continue
		}
		h32 := make([]int32, len(h))
		for i, a := range h {
			h32[i] = int32(a)
		}
		if r.Bool(0.2) {
			test = append(test, h32)
		} else {
			train = append(train, h32)
		}
	}
	const k = 10
	recs := []recommend.Selector{
		recommend.NewPopularity(recommend.RankByCount(downloads)),
		recommend.NewCollaborative(train),
		recommend.NewClusterAware(downloads, func(a int32) int32 {
			return int32(cat.CategoryOf(catalog.AppID(a)))
		}),
	}
	results, err := recommend.Evaluate(recs, test, k, 2)
	if err != nil {
		return nil, err
	}
	return &RecommendX4Result{K: k, Results: results}, nil
}
