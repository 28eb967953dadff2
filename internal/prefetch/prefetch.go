// Package prefetch simulates the app-delivery prefetching §7 of the paper
// proposes: "a user that downloads an app from a given category is more
// likely to download the next few apps from the same category. Thus, the
// most popular apps from this category that have not been downloaded by
// the user can be prefetched to a local place."
//
// The simulator replays a workload-model download stream; after each
// download a recommend.Selector picks the next prefetch set per user
// under a fixed per-user budget, and the simulator measures how often the
// user's next download was already prefetched (hit rate) alongside how
// many prefetched apps were never used (waste).
package prefetch

import (
	"fmt"
	"math"

	"planetapps/internal/model"
	"planetapps/internal/recommend"
)

// None is the no-prefetch baseline: every download is a miss. The
// popularity-only baseline is recommend.Popularity — prefetching the
// globally most popular apps the user lacks is the recommender's strawman
// pointed at the delivery path.
type None struct{}

// Name implements recommend.Selector.
func (None) Name() string { return "none" }

// Select implements recommend.Selector.
func (None) Select([]int32, int) []int32 { return nil }

// CategoryTop is the paper's proposal: prefetch the most popular unowned
// apps of the category the user just downloaded from (falling back to the
// user's earlier categories when the budget allows).
type CategoryTop struct {
	cm *model.ClusterMap
}

// NewCategoryTop builds the strategy over a cluster map whose member lists
// are in within-cluster popularity order.
func NewCategoryTop(cm *model.ClusterMap) *CategoryTop {
	return &CategoryTop{cm: cm}
}

// Name implements recommend.Selector.
func (c *CategoryTop) Name() string { return "category-top" }

// Select implements recommend.Selector.
func (c *CategoryTop) Select(history []int32, budget int) []int32 {
	if len(history) == 0 {
		return nil
	}
	owned := recommend.Owned(history)
	out := make([]int32, 0, budget)
	seen := map[int32]struct{}{}
	// Walk the user's categories from most recent backwards.
	for i := len(history) - 1; i >= 0 && len(out) < budget; i-- {
		cat := c.cm.OfApp[history[i]]
		if _, dup := seen[cat]; dup {
			continue
		}
		seen[cat] = struct{}{}
		for _, app := range c.cm.Members[cat] {
			if len(out) == budget {
				break
			}
			if _, has := owned[app]; has {
				continue
			}
			out = append(out, app)
		}
	}
	return out
}

// Result reports one strategy's prefetching effectiveness.
type Result struct {
	Strategy string
	// Budget is the per-user prefetch slot count.
	Budget int
	// Downloads is the number of download events scored (those with at
	// least one preceding download by the same user).
	Downloads int64
	// Hits counts downloads already present in the user's prefetch set.
	Hits int64
	// Prefetched counts prefetch transfers performed (an app entering a
	// user's prefetch set costs one transfer).
	Prefetched int64
}

// HitRate returns the percentage of scored downloads served from the
// prefetch set.
func (r Result) HitRate() float64 {
	if r.Downloads == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Downloads)
}

// TransfersPerHit returns the prefetch transfers spent per hit (cost of
// the strategy); +Inf when there were no hits.
func (r Result) TransfersPerHit() float64 {
	if r.Hits == 0 {
		if r.Prefetched == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(r.Prefetched) / float64(r.Hits)
}

// Simulate replays the workload through a prefetching strategy. After each
// user download the strategy refreshes that user's prefetch set (diffing
// against the previous set to count transfers). The next download by the
// same user scores a hit when it is in the set.
func Simulate(s recommend.Selector, sim *model.Simulator, budget int, seed uint64) (Result, error) {
	if budget < 0 {
		return Result{}, fmt.Errorf("prefetch: negative budget")
	}
	res := Result{Strategy: s.Name(), Budget: budget}
	histories := map[int32][]int32{}
	sets := map[int32]map[int32]struct{}{}
	sim.Stream(seed, func(e model.Event) bool {
		h := histories[e.User]
		if len(h) > 0 {
			res.Downloads++
			if _, ok := sets[e.User][e.App]; ok {
				res.Hits++
			}
		}
		h = append(h, e.App)
		histories[e.User] = h
		// Refresh the user's prefetch set.
		want := s.Select(h, budget)
		prev := sets[e.User]
		next := make(map[int32]struct{}, len(want))
		for _, app := range want {
			next[app] = struct{}{}
			if _, had := prev[app]; !had {
				res.Prefetched++
			}
		}
		sets[e.User] = next
		return true
	})
	return res, nil
}

// Compare runs several strategies over the same workload configuration and
// seed, returning results in input order.
func Compare(strategies []recommend.Selector, cfg model.Config, budget int, seed uint64) ([]Result, error) {
	out := make([]Result, 0, len(strategies))
	for _, s := range strategies {
		sim, err := model.NewSimulator(model.AppClustering, cfg)
		if err != nil {
			return nil, err
		}
		r, err := Simulate(s, sim, budget, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
