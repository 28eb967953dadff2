package cache

import (
	"fmt"

	"planetapps/internal/model"
)

// SimResult reports one cache simulation.
type SimResult struct {
	Policy   string
	Model    string
	Capacity int
	Requests int64
	Hits     int64
}

// HitRatio returns hits/requests as a percentage, or 0 for an empty run.
func (r SimResult) HitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Requests)
}

// Simulate replays a workload-model event stream through a cache policy,
// warming the cache with the most popular apps first (the paper initializes
// the cache "with the respective number of most popular apps"; under the
// models' app-index-equals-rank convention those are apps 0..capacity-1).
func Simulate(p Policy[int32], sim *model.Simulator, capacity int, seed uint64) SimResult {
	ids := make([]int32, capacity)
	for i := range ids {
		ids[i] = int32(i)
	}
	p.Warm(ids)
	res := SimResult{Policy: p.Name(), Model: sim.Kind().String(), Capacity: capacity}
	sim.Stream(seed, func(e model.Event) bool {
		res.Requests++
		if p.Access(e.App) {
			res.Hits++
		}
		return true
	})
	return res
}

// SweepPoint is one (cache size, per-model hit ratio) row of Figure 19.
type SweepPoint struct {
	// SizePct is the cache size as a percentage of the app population.
	SizePct float64
	// Capacity is the corresponding number of cached apps.
	Capacity int
	// HitRatio maps model name to hit percentage.
	HitRatio map[string]float64
}

// SweepLRU reproduces Figure 19: an LRU cache swept over sizes (percent of
// total apps), driven by each of the three workload models built from cfg.
func SweepLRU(cfg model.Config, sizesPct []float64, seed uint64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(sizesPct))
	sims := make(map[model.Kind]*model.Simulator, len(model.Kinds))
	for _, k := range model.Kinds {
		s, err := model.NewSimulator(k, cfg)
		if err != nil {
			return nil, err
		}
		sims[k] = s
	}
	for _, pct := range sizesPct {
		capApps := int(pct / 100 * float64(cfg.Apps))
		if capApps < 1 {
			return nil, fmt.Errorf("cache: size %v%% of %d apps is empty", pct, cfg.Apps)
		}
		pt := SweepPoint{SizePct: pct, Capacity: capApps, HitRatio: map[string]float64{}}
		for _, k := range model.Kinds {
			r := Simulate(NewLRU[int32](capApps), sims[k], capApps, seed)
			pt.HitRatio[k.String()] = r.HitRatio()
		}
		out = append(out, pt)
	}
	return out, nil
}

// ComparePolicies runs the APP-CLUSTERING workload against several policies
// at one cache size — the X2 extension experiment. The category-aware
// policy uses the model's cluster map as its category structure.
func ComparePolicies(cfg model.Config, capacity int, seed uint64) ([]SimResult, error) {
	sim, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		return nil, err
	}
	cm := cfg.ClusterMap
	if cm == nil {
		cm = model.RoundRobin(cfg.Apps, cfg.Clusters)
	}
	var out []SimResult
	for _, p := range []Policy[int32]{
		NewFIFO[int32](capacity),
		NewLRU[int32](capacity),
		NewTwoQ[int32](capacity),
		NewLFU[int32](capacity),
		NewCategoryAware(CategoryAwareConfig[int32]{
			Capacity:   capacity,
			CategoryOf: func(id int32) int32 { return cm.OfApp[id] },
		}),
	} {
		out = append(out, Simulate(p, sim, capacity, seed))
	}
	return out, nil
}
