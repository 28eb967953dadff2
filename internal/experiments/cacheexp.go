package experiments

import (
	"planetapps/internal/cache"
	"planetapps/internal/model"
	"planetapps/internal/report"
)

func init() {
	register("F19", func(s *Suite) (Result, error) { return Figure19(s) })
	register("X2", func(s *Suite) (Result, error) { return CachePoliciesX2(s) })
}

// figure19Config scales the paper's cache simulation (60,000 apps, 30
// categories, 600,000 users, 2M downloads, zr=1.7, zc=1.4, p=0.9) by the
// suite's scale factor.
func figure19Config(s *Suite) model.Config {
	scale := s.cfg.Scale
	apps := int(6000 * scale)
	if apps < 600 {
		apps = 600
	}
	users := int(60000 * scale)
	if users < 2000 {
		users = 2000
	}
	downloads := 200000 * scale
	if downloads < 20000 {
		downloads = 20000
	}
	return model.Config{
		Apps:             apps,
		Users:            users,
		DownloadsPerUser: downloads / float64(users),
		ZipfGlobal:       1.7,
		ZipfCluster:      1.4,
		ClusterP:         0.9,
		Clusters:         30,
	}
}

// Figure19Result is the LRU cache study (Figure 19).
type Figure19Result struct {
	Points []cache.SweepPoint
}

// Tables implements Result.
func (r *Figure19Result) Tables() []*report.Table {
	t := report.NewTable("Figure 19: LRU cache hit ratio vs cache size",
		"cache size (% apps)", "capacity (apps)", "ZIPF %", "ZIPF-at-most-once %", "APP-CLUSTERING %")
	for _, p := range r.Points {
		t.AddRow(p.SizePct, p.Capacity,
			p.HitRatio[model.Zipf.String()],
			p.HitRatio[model.ZipfAtMostOnce.String()],
			p.HitRatio[model.AppClustering.String()])
	}
	return []*report.Table{t}
}

// Figure19 sweeps the LRU cache across sizes and workload models.
func Figure19(s *Suite) (*Figure19Result, error) {
	if err := s.simulated("F19 simulates the model alone and reads no store"); err != nil {
		return nil, err
	}
	points, err := cache.SweepLRU(figure19Config(s), []float64{1, 2, 4, 6, 8, 10, 14, 20}, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Figure19Result{Points: points}, nil
}

// CachePoliciesX2Result compares replacement policies under the clustering
// workload (extension X2).
type CachePoliciesX2Result struct {
	Capacity int
	Results  []cache.SimResult
}

// Tables implements Result.
func (r *CachePoliciesX2Result) Tables() []*report.Table {
	t := report.NewTable("X2: replacement policies under APP-CLUSTERING",
		"policy", "capacity", "requests", "hit ratio %")
	for _, res := range r.Results {
		t.AddRow(res.Policy, res.Capacity, res.Requests, res.HitRatio())
	}
	return []*report.Table{t}
}

// HitRatio returns the named policy's hit ratio, or -1 when absent.
func (r *CachePoliciesX2Result) HitRatio(policy string) float64 {
	for _, res := range r.Results {
		if res.Policy == policy {
			return res.HitRatio()
		}
	}
	return -1
}

// CachePoliciesX2 runs the policy comparison at a 5% cache size.
func CachePoliciesX2(s *Suite) (*CachePoliciesX2Result, error) {
	if err := s.simulated("X2 simulates the model alone and reads no store"); err != nil {
		return nil, err
	}
	cfg := figure19Config(s)
	capacity := cfg.Apps / 20
	if capacity < 10 {
		capacity = 10
	}
	results, err := cache.ComparePolicies(cfg, capacity, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &CachePoliciesX2Result{Capacity: capacity, Results: results}, nil
}
