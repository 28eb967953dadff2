package cache

import (
	"testing"

	"planetapps/internal/model"
	"planetapps/internal/rng"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[int32](2)
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("warm access missed")
	}
	c.Access(2)
	c.Access(3) // evicts 1 (LRU order: 2 older than... 1 was used, then 2 inserted, then 3 evicts 1? order: after Access(1)x2, Access(2): [2,1]; Access(3) evicts 1)
	if c.Contains(1) {
		t.Fatal("LRU kept the least recently used entry")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("LRU evicted the wrong entry")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRURecencyUpdatesOnHit(t *testing.T) {
	c := NewLRU[int32](2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 becomes most recent
	c.Access(3) // should evict 2
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("hit did not refresh recency")
	}
}

func TestLRUWarm(t *testing.T) {
	c := NewLRU[int32](3)
	c.Warm([]int32{10, 11, 12, 13}) // only first 3 fit; 10 most recent
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.Contains(10) || !c.Contains(11) || !c.Contains(12) {
		t.Fatal("warm set wrong")
	}
	c.Access(20) // evicts 12 (least recent of the warmed set)
	if c.Contains(12) || !c.Contains(10) {
		t.Fatal("warm priority order wrong")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c := NewFIFO[int32](2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // hit, but FIFO does not refresh
	c.Access(3) // evicts 1 (first in)
	if c.Contains(1) || !c.Contains(2) || !c.Contains(3) {
		t.Fatal("FIFO eviction order wrong")
	}
}

func TestLFUEvictsColdest(t *testing.T) {
	c := NewLFU[int32](2)
	c.Access(1)
	c.Access(1)
	c.Access(1) // freq 3
	c.Access(2) // freq 1
	c.Access(3) // evicts 2 (lowest freq)
	if c.Contains(2) || !c.Contains(1) || !c.Contains(3) {
		t.Fatal("LFU eviction wrong")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLFUTieBreakByRecency(t *testing.T) {
	c := NewLFU[int32](2)
	c.Access(1) // freq 1
	c.Access(2) // freq 1, more recent
	c.Access(3) // tie at freq 1: evict least recent = 1
	if c.Contains(1) || !c.Contains(2) || !c.Contains(3) {
		t.Fatal("LFU tie-break wrong")
	}
}

func TestLFUPromotionAcrossBuckets(t *testing.T) {
	c := NewLFU[int32](3)
	c.Access(1)
	c.Access(2)
	c.Access(3)
	// Promote 1 twice, 2 once.
	c.Access(1)
	c.Access(1)
	c.Access(2)
	c.Access(4) // evicts 3 (freq 1)
	if c.Contains(3) || !c.Contains(1) || !c.Contains(2) || !c.Contains(4) {
		t.Fatal("LFU bucket promotion broken")
	}
}

func TestConstructorsPanicOnBadCapacity(t *testing.T) {
	for _, f := range []func(){
		func() { NewLRU[int32](0) },
		func() { NewFIFO[int32](0) },
		func() { NewLFU[int32](-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad capacity did not panic")
				}
			}()
			f()
		}()
	}
}

func newTestCategoryAware(capacity, apps, cats int) *CategoryAware[int32] {
	cm := model.RoundRobin(apps, cats)
	return NewCategoryAware(CategoryAwareConfig[int32]{
		Capacity:   capacity,
		CategoryOf: func(id int32) int32 { return cm.OfApp[id] },
	})
}

func TestCategoryAwareBasics(t *testing.T) {
	c := newTestCategoryAware(3, 100, 5)
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("warm access missed")
	}
	c.Access(2)
	c.Access(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Access(4) // over capacity: something must be evicted
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d", c.Len())
	}
	if !c.Contains(4) {
		t.Fatal("newly inserted app evicted immediately")
	}
}

func TestCategoryAwareIsolatesCategoryChurn(t *testing.T) {
	// A stable head in category 0 must survive heavy churn from category 1
	// once allocation targets have been learned — the property a global
	// LRU lacks.
	cm := model.RoundRobin(1000, 2)
	c := NewCategoryAware(CategoryAwareConfig[int32]{
		Capacity:       10,
		CategoryOf:     func(id int32) int32 { return cm.OfApp[id] },
		RebalanceEvery: 20,
	})
	// Even ids are category 0; odd are category 1. App 0 is the hot head.
	for i := 0; i < 400; i++ {
		c.Access(0)                    // hot app, category 0
		c.Access(int32(2*(i%150) + 1)) // churn across category 1
	}
	if !c.Contains(0) {
		t.Fatal("hot app evicted by cross-category churn")
	}
}

func TestCategoryAwareConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewCategoryAware(CategoryAwareConfig[int32]{Capacity: 10})
}

func cacheSimCfg() model.Config {
	return model.Config{
		Apps: 2000, Users: 6000, DownloadsPerUser: 10,
		ZipfGlobal: 1.7, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
}

func TestSimulateHitRatioSane(t *testing.T) {
	cfg := cacheSimCfg()
	sim, err := model.NewSimulator(model.Zipf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lru := NewLRU[int32](200)
	res := Simulate(lru, sim, 200, 1)
	if res.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	hr := res.HitRatio()
	if hr < 50 || hr > 100 {
		t.Fatalf("ZIPF LRU hit ratio %v%%, want high", hr)
	}
}

func TestSweepLRUFigure19Shape(t *testing.T) {
	// Figure 19's two claims: hit ratio grows with cache size, and
	// APP-CLUSTERING yields a significantly lower hit ratio than ZIPF and
	// ZIPF-at-most-once at every size.
	cfg := cacheSimCfg()
	points, err := SweepLRU(cfg, []float64{1, 5, 10, 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	for i, pt := range points {
		z := pt.HitRatio[model.Zipf.String()]
		amo := pt.HitRatio[model.ZipfAtMostOnce.String()]
		cl := pt.HitRatio[model.AppClustering.String()]
		if cl >= z || cl >= amo {
			t.Fatalf("size %v%%: clustering hit ratio %v not below zipf %v / amo %v", pt.SizePct, cl, z, amo)
		}
		if i > 0 {
			prev := points[i-1].HitRatio[model.AppClustering.String()]
			if cl < prev-2 { // allow small noise
				t.Fatalf("clustering hit ratio fell with larger cache: %v -> %v", prev, cl)
			}
		}
	}
}

func TestSweepLRUErrors(t *testing.T) {
	cfg := cacheSimCfg()
	if _, err := SweepLRU(cfg, []float64{0.001}, 1); err == nil {
		t.Fatal("empty cache size accepted")
	}
}

func TestComparePoliciesCategoryAwareWins(t *testing.T) {
	// X2: under the clustering workload the category-aware policy should
	// beat plain LRU.
	cfg := cacheSimCfg()
	results, err := ComparePolicies(cfg, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SimResult{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	lru, ok1 := byName["LRU"]
	ca, ok2 := byName["CategoryAware"]
	if !ok1 || !ok2 {
		t.Fatalf("missing policies in %v", results)
	}
	if ca.HitRatio() <= lru.HitRatio() {
		t.Fatalf("category-aware %v%% did not beat LRU %v%%", ca.HitRatio(), lru.HitRatio())
	}
}

func TestPoliciesNeverExceedCapacity(t *testing.T) {
	r := rng.New(5)
	policies := []Policy[int32]{NewLRU[int32](50), NewFIFO[int32](50), NewLFU[int32](50), newTestCategoryAware(50, 500, 10)}
	for i := 0; i < 20000; i++ {
		id := int32(r.Intn(500))
		for _, p := range policies {
			p.Access(id)
			if p.Len() > 50+1 { // category-aware may transiently hold cap
				t.Fatalf("%s holds %d entries with capacity 50", p.Name(), p.Len())
			}
		}
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	c := NewLRU[int32](10000)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int32(r.Intn(100000)))
	}
}

func BenchmarkLFUAccess(b *testing.B) {
	c := NewLFU[int32](10000)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int32(r.Intn(100000)))
	}
}

func TestTwoQProbationAndPromotion(t *testing.T) {
	c := NewTwoQ[int32](4) // inCap=1, ghostCap=4
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("probation resident missed")
	}
	// Fill to capacity; probation overflow should evict into ghosts once
	// the cache is full.
	c.Access(2)
	c.Access(3)
	c.Access(4)
	c.Access(5) // full: oldest probation entry (1) evicted to ghost
	if c.Contains(1) {
		t.Fatal("oldest probation entry still resident")
	}
	// Ghost hit promotes into the protected queue.
	if c.Access(1) {
		t.Fatal("ghost re-admission counted as hit")
	}
	if !c.Contains(1) {
		t.Fatal("ghost promotion failed")
	}
	if c.Len() > 4 {
		t.Fatalf("over capacity: %d", c.Len())
	}
}

func TestTwoQScanResistance(t *testing.T) {
	// A hot protected app must survive a long one-shot scan.
	c := NewTwoQ[int32](8)
	c.Warm([]int32{1000, 1001}) // protected residents
	for i := int32(0); i < 500; i++ {
		c.Access(i) // one-shot scan
	}
	if !c.Contains(1000) || !c.Contains(1001) {
		t.Fatal("scan evicted the protected set")
	}
}

func TestTwoQPanicsOnTinyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 1 did not panic")
		}
	}()
	NewTwoQ[int32](1)
}

func TestTwoQCapacityInvariant(t *testing.T) {
	c := NewTwoQ[int32](16)
	r := rng.New(3)
	for i := 0; i < 50000; i++ {
		c.Access(int32(r.Intn(300)))
		if c.Len() > 16 {
			t.Fatalf("capacity exceeded: %d", c.Len())
		}
	}
}
