package model

import (
	"testing"
	"testing/quick"

	"planetapps/internal/dist"
	"planetapps/internal/rng"
)

// TestPropertyRunConservation: for any small random configuration, every
// simulated download lands on exactly one app and no app exceeds the user
// population under fetch-at-most-once kinds.
func TestPropertyRunConservation(t *testing.T) {
	r := rng.New(41)
	if err := quick.Check(func(seed uint16) bool {
		cfg := Config{
			Apps:             20 + r.Intn(200),
			Users:            20 + r.Intn(300),
			DownloadsPerUser: 1 + r.Float64()*6,
			ZipfGlobal:       r.Float64() * 2,
			ZipfCluster:      r.Float64() * 2,
			ClusterP:         r.Float64(),
			Clusters:         1 + r.Intn(10),
		}
		for _, k := range Kinds {
			sim, err := NewSimulator(k, cfg)
			if err != nil {
				return false
			}
			res := sim.Run(uint64(seed))
			var sum int64
			for _, d := range res.Downloads {
				if d < 0 {
					return false
				}
				if k != Zipf && d > int64(cfg.Users) {
					return false
				}
				sum += d
			}
			if sum != res.Total {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPredictCurveSorted: analytic curves are always non-negative
// and sorted descending, for any kind and random parameters.
func TestPropertyPredictCurveSorted(t *testing.T) {
	r := rng.New(43)
	if err := quick.Check(func(uint16) bool {
		cfg := Config{
			Apps:             50 + r.Intn(500),
			Users:            100 + r.Intn(5000),
			DownloadsPerUser: r.Float64() * 10,
			ZipfGlobal:       r.Float64() * 2,
			ZipfCluster:      r.Float64() * 2,
			ClusterP:         r.Float64(),
			Clusters:         1 + r.Intn(40),
		}
		for _, k := range Kinds {
			c := PredictCurve(k, cfg)
			if len(c.Downloads) != cfg.Apps {
				return false
			}
			for i, v := range c.Downloads {
				if v < 0 {
					return false
				}
				if i > 0 && v > c.Downloads[i-1]+1e-9 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyClusterMapsPartition: round-robin and contiguous maps always
// partition the app set exactly.
func TestPropertyClusterMapsPartition(t *testing.T) {
	r := rng.New(47)
	if err := quick.Check(func(uint16) bool {
		apps := 1 + r.Intn(500)
		clusters := 1 + r.Intn(50)
		for _, m := range []*ClusterMap{RoundRobin(apps, clusters), Contiguous(apps, clusters)} {
			if len(m.OfApp) != apps {
				return false
			}
			seen := make([]bool, apps)
			for c, members := range m.Members {
				for _, app := range members {
					if int(app) < 0 || int(app) >= apps || seen[app] {
						return false
					}
					if m.OfApp[app] != int32(c) {
						return false
					}
					seen[app] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistanceIdentity: the Eq. 6 distance of any positive curve to
// itself is zero, and it is non-negative against any other curve.
func TestPropertyDistanceIdentity(t *testing.T) {
	r := rng.New(53)
	if err := quick.Check(func(uint16) bool {
		n := 5 + r.Intn(100)
		cfg := Config{
			Apps: n, Users: 100, DownloadsPerUser: 3,
			ZipfGlobal: 1.0, ZipfCluster: 1.0, ClusterP: 0.5, Clusters: 5,
		}
		c := PredictCurve(ZipfAtMostOnce, cfg)
		if dist.MeanRelativeError(c, c) > 1e-9 {
			return false
		}
		return dist.MeanRelativeError(c, PredictCurve(Zipf, cfg)) >= 0
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
