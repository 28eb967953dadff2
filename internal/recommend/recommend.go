// Package recommend implements the recommendation systems §7 of the paper
// discusses: a classic user-based collaborative filter ("a typical
// recommendation system follows a collaborative filtering method"), a
// popularity baseline, and the clustering-aware recommender the paper
// proposes — one that "capitalizes on the temporal affinity of users to
// app categories" by suggesting popular not-yet-downloaded apps from the
// user's recently active categories.
//
// Recommenders are evaluated by next-download hit rate: train on each
// user's history prefix, ask for k suggestions, score whether the user's
// actual next download is among them.
package recommend

import (
	"fmt"
	"sort"
)

// Selector picks apps for a user from the user's download history (app
// indices, oldest first): a recommender suggesting them, or a prefetcher
// (internal/prefetch) fetching them ahead of the download. Implementations
// must not mutate history.
type Selector interface {
	// Name identifies the selector in reports.
	Name() string
	// Select returns up to k app indices, best first, excluding apps
	// already in history.
	Select(history []int32, k int) []int32
}

// Popularity selects the globally most popular apps the user lacks — the
// "bombard them with the same set of popular apps" strawman §7 calls out,
// blind to the clustering effect.
type Popularity struct {
	// ranked holds app indices by descending popularity.
	ranked []int32
}

// NewPopularity builds the baseline from app indices ranked by descending
// popularity (see RankByCount).
func NewPopularity(ranked []int32) *Popularity {
	return &Popularity{ranked: ranked}
}

// RankByCount returns the app indices sorted by descending download count,
// ties in index order.
func RankByCount(downloads []int64) []int32 {
	idx := make([]int32, len(downloads))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return downloads[idx[a]] > downloads[idx[b]]
	})
	return idx
}

// Name implements Selector.
func (p *Popularity) Name() string { return "popularity" }

// Select implements Selector.
func (p *Popularity) Select(history []int32, k int) []int32 {
	owned := Owned(history)
	out := make([]int32, 0, k)
	for _, app := range p.ranked {
		if len(out) == k {
			break
		}
		if _, ok := owned[app]; !ok {
			out = append(out, app)
		}
	}
	return out
}

// Owned returns the set of apps in history.
func Owned(history []int32) map[int32]struct{} {
	m := make(map[int32]struct{}, len(history))
	for _, a := range history {
		m[a] = struct{}{}
	}
	return m
}

// Collaborative is a user-based k-nearest-neighbour collaborative filter:
// users similar to the target (by Jaccard similarity of download sets)
// vote for the apps they own that the target lacks.
type Collaborative struct {
	// users holds every training user's download set.
	users []map[int32]struct{}
	// invert maps app -> training users who own it, to find candidate
	// neighbours quickly.
	invert map[int32][]int32
	// Neighbours is the kNN width (default 20).
	Neighbours int
}

// NewCollaborative indexes the training users' histories.
func NewCollaborative(histories [][]int32) *Collaborative {
	c := &Collaborative{invert: map[int32][]int32{}, Neighbours: 20}
	for ui, h := range histories {
		set := Owned(h)
		c.users = append(c.users, set)
		for app := range set {
			c.invert[app] = append(c.invert[app], int32(ui))
		}
	}
	return c
}

// Name implements Selector.
func (c *Collaborative) Name() string { return "collaborative" }

// Select implements Selector.
func (c *Collaborative) Select(history []int32, k int) []int32 {
	owned := Owned(history)
	if len(owned) == 0 {
		return nil
	}
	// Candidate neighbours: anyone sharing at least one app.
	overlap := map[int32]int{}
	for app := range owned {
		for _, u := range c.invert[app] {
			overlap[u]++
		}
	}
	type neighbour struct {
		user int32
		sim  float64
	}
	ns := make([]neighbour, 0, len(overlap))
	for u, inter := range overlap {
		union := len(owned) + len(c.users[u]) - inter
		if union == 0 {
			continue
		}
		ns = append(ns, neighbour{u, float64(inter) / float64(union)})
	}
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].sim != ns[b].sim {
			return ns[a].sim > ns[b].sim
		}
		return ns[a].user < ns[b].user
	})
	if len(ns) > c.Neighbours {
		ns = ns[:c.Neighbours]
	}
	// Weighted votes from neighbours.
	votes := map[int32]float64{}
	for _, n := range ns {
		for app := range c.users[n.user] {
			if _, has := owned[app]; !has {
				votes[app] += n.sim
			}
		}
	}
	return topK(votes, k)
}

func topK(votes map[int32]float64, k int) []int32 {
	type scored struct {
		app int32
		v   float64
	}
	s := make([]scored, 0, len(votes))
	for app, v := range votes {
		s = append(s, scored{app, v})
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].v != s[b].v {
			return s[a].v > s[b].v
		}
		return s[a].app < s[b].app
	})
	if len(s) > k {
		s = s[:k]
	}
	out := make([]int32, len(s))
	for i := range s {
		out[i] = s[i].app
	}
	return out
}

// ClusterAware is the paper's proposal: suggest the most popular apps the
// user lacks from the user's recently active categories, weighting recent
// categories higher ("the recommendation system can suggest apps related
// to the most recent interests of a user, instead of apps related to older
// downloads").
type ClusterAware struct {
	categoryOf func(int32) int32
	// rankedByCat[c] holds category c's apps by descending downloads.
	rankedByCat map[int32][]int32
	// RecentWindow is how many trailing downloads define the user's
	// active categories (default 5).
	RecentWindow int
}

// NewClusterAware builds the recommender from per-app download counts and
// the store's category classification.
func NewClusterAware(downloads []int64, categoryOf func(int32) int32) *ClusterAware {
	r := &ClusterAware{
		categoryOf:   categoryOf,
		rankedByCat:  map[int32][]int32{},
		RecentWindow: 5,
	}
	for _, app := range RankByCount(downloads) {
		c := categoryOf(app)
		r.rankedByCat[c] = append(r.rankedByCat[c], app)
	}
	return r
}

// Name implements Selector.
func (r *ClusterAware) Name() string { return "cluster-aware" }

// Select implements Selector.
func (r *ClusterAware) Select(history []int32, k int) []int32 {
	if len(history) == 0 {
		return nil
	}
	owned := Owned(history)
	// Active categories, most recent first, deduplicated.
	var cats []int32
	seen := map[int32]struct{}{}
	for i := len(history) - 1; i >= 0 && len(cats) < r.RecentWindow; i-- {
		c := r.categoryOf(history[i])
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		cats = append(cats, c)
	}
	// Round-robin across active categories, most recent category first,
	// taking each category's most popular unowned apps.
	cursors := make([]int, len(cats))
	out := make([]int32, 0, k)
	for len(out) < k {
		progressed := false
		for ci, c := range cats {
			if len(out) == k {
				break
			}
			apps := r.rankedByCat[c]
			for cursors[ci] < len(apps) {
				app := apps[cursors[ci]]
				cursors[ci]++
				if _, has := owned[app]; !has {
					out = append(out, app)
					progressed = true
					break
				}
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// EvalResult reports one recommender's next-download hit rate.
type EvalResult struct {
	Recommender string
	// K is the suggestion list length.
	K int
	// Trials is the number of (prefix, next download) evaluations.
	Trials int
	// Hits counts trials where the next download was suggested.
	Hits int
}

// HitRate returns hits/trials as a percentage.
func (e EvalResult) HitRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return 100 * float64(e.Hits) / float64(e.Trials)
}

// Evaluate scores recommenders by next-download prediction over test users:
// for each test history of length >= 2, every split point trains on the
// prefix and checks whether the next download appears in the top-k
// suggestions. minPrefix sets the shortest prefix evaluated (>= 1).
func Evaluate(recs []Selector, testHistories [][]int32, k, minPrefix int) ([]EvalResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("recommend: k = %d", k)
	}
	if minPrefix < 1 {
		minPrefix = 1
	}
	out := make([]EvalResult, len(recs))
	for i, r := range recs {
		out[i] = EvalResult{Recommender: r.Name(), K: k}
	}
	for _, h := range testHistories {
		for split := minPrefix; split < len(h); split++ {
			prefix, next := h[:split], h[split]
			for i, r := range recs {
				out[i].Trials++
				for _, s := range r.Select(prefix, k) {
					if s == next {
						out[i].Hits++
						break
					}
				}
			}
		}
	}
	return out, nil
}
