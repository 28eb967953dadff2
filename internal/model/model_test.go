package model

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"planetapps/internal/dist"
	"planetapps/internal/stats"
)

func smallCfg() Config {
	return Config{
		Apps: 1000, Users: 2000, DownloadsPerUser: 10,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
}

func TestKindString(t *testing.T) {
	if Zipf.String() != "ZIPF" || ZipfAtMostOnce.String() != "ZIPF-at-most-once" || AppClustering.String() != "APP-CLUSTERING" {
		t.Fatal("kind names changed")
	}
}

// TestParseKind holds every name the -model flags of cmd/simulate and
// cmd/loadtest take, and every String form, to its kind.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"zipf": Zipf, "zipf-at-most-once": ZipfAtMostOnce, "zipf-amo": ZipfAtMostOnce, "amo": ZipfAtMostOnce,
		"app-clustering": AppClustering, "clustering": AppClustering, "Clustering": AppClustering,
	} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, k := range Kinds {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"", "zipfy", "app_clustering"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	for _, k := range Kinds {
		if err := good.Validate(k); err != nil {
			t.Fatalf("valid config rejected for %s: %v", k, err)
		}
	}
	bad := []Config{
		{Apps: 0, Users: 1, DownloadsPerUser: 1, ZipfGlobal: 1, Clusters: 1},
		{Apps: 1, Users: 0, DownloadsPerUser: 1, ZipfGlobal: 1, Clusters: 1},
		{Apps: 1, Users: 1, DownloadsPerUser: -1, ZipfGlobal: 1, Clusters: 1},
		{Apps: 1, Users: 1, DownloadsPerUser: 1, ZipfGlobal: -1, Clusters: 1},
	}
	for i, c := range bad {
		if err := c.Validate(Zipf); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	c := smallCfg()
	c.ClusterP = 1.5
	if err := c.Validate(AppClustering); err == nil {
		t.Fatal("ClusterP > 1 accepted")
	}
	c = smallCfg()
	c.Clusters = 0
	if err := c.Validate(AppClustering); err == nil {
		t.Fatal("zero clusters accepted for clustering model")
	}
}

func TestRoundRobin(t *testing.T) {
	m := RoundRobin(10, 3)
	if m.Clusters() != 3 {
		t.Fatalf("clusters = %d", m.Clusters())
	}
	// App i belongs to cluster i%3; member lists are in rank order.
	for i := 0; i < 10; i++ {
		if m.OfApp[i] != int32(i%3) {
			t.Fatalf("app %d in cluster %d", i, m.OfApp[i])
		}
	}
	if m.Members[0][0] != 0 || m.Members[0][1] != 3 {
		t.Fatalf("cluster 0 member order: %v", m.Members[0])
	}
	// More clusters than apps collapses to apps clusters.
	m = RoundRobin(2, 5)
	if m.Clusters() != 2 {
		t.Fatalf("overclustered map has %d clusters", m.Clusters())
	}
}

func TestRunDeterministic(t *testing.T) {
	s, err := NewSimulator(AppClustering, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	a := s.Run(99)
	b := s.Run(99)
	for i := range a.Downloads {
		if a.Downloads[i] != b.Downloads[i] {
			t.Fatalf("same-seed runs differ at app %d", i)
		}
	}
	c := s.Run(100)
	diff := false
	for i := range a.Downloads {
		if a.Downloads[i] != c.Downloads[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRunTotals(t *testing.T) {
	cfg := smallCfg()
	for _, k := range Kinds {
		s, err := NewSimulator(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(1)
		var sum int64
		for _, d := range res.Downloads {
			sum += d
		}
		if sum != res.Total {
			t.Fatalf("%s: download sum %d != total %d", k, sum, res.Total)
		}
		want := float64(cfg.Users) * cfg.DownloadsPerUser
		if math.Abs(float64(res.Total)-want) > want*0.05 {
			t.Fatalf("%s: total %d, want ~%v", k, res.Total, want)
		}
	}
}

func TestAtMostOnceCapsDownloads(t *testing.T) {
	// With U users, no app can exceed U downloads under fetch-at-most-once.
	cfg := Config{
		Apps: 50, Users: 300, DownloadsPerUser: 10,
		ZipfGlobal: 2.5, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 5,
	}
	for _, k := range []Kind{ZipfAtMostOnce, AppClustering} {
		s, err := NewSimulator(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(7)
		for i, d := range res.Downloads {
			if d > int64(cfg.Users) {
				t.Fatalf("%s: app %d downloaded %d times by %d users", k, i, d, cfg.Users)
			}
		}
	}
	// Pure ZIPF has no such cap: with a steep exponent the top app far
	// exceeds the user count.
	s, _ := NewSimulator(Zipf, cfg)
	res := s.Run(7)
	if res.Curve().Top() <= float64(cfg.Users) {
		t.Fatalf("ZIPF top app has %v downloads, expected > %d (no fetch-at-most-once)", res.Curve().Top(), cfg.Users)
	}
}

func TestClusteringTruncatesTail(t *testing.T) {
	// With popularity-correlated clusters (contiguous rank blocks), the
	// clustering effect starves the tail: users stick to the clusters of
	// their (popular) previous downloads, so apps in tail clusters receive
	// fewer downloads than ZIPF-at-most-once would give them at the same
	// parameters. Real category assignments fall between this and the
	// neutral round-robin interleaving.
	cfg := Config{
		Apps: 2000, Users: 4000, DownloadsPerUser: 15,
		ZipfGlobal: 1.2, ZipfCluster: 1.4, ClusterP: 0.9,
		ClusterMap: Contiguous(2000, 20),
	}
	zs, err := NewSimulator(ZipfAtMostOnce, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	zc := zs.Run(3).Curve()
	cc := cs.Run(3).Curve()
	// Compare the mass held by the bottom half of ranks.
	tailShare := func(c dist.RankCurve) float64 {
		half := len(c.Downloads) / 2
		var tail, total float64
		for i, v := range c.Downloads {
			total += v
			if i >= half {
				tail += v
			}
		}
		return tail / total
	}
	zt, ct := tailShare(zc), tailShare(cc)
	if ct >= zt {
		t.Fatalf("clustering tail share %v not below zipf-at-most-once %v", ct, zt)
	}
}

func TestContiguous(t *testing.T) {
	m := Contiguous(10, 3)
	if m.Clusters() != 3 {
		t.Fatalf("clusters = %d", m.Clusters())
	}
	// Blocks of ceil(10/3)=4: [0..3], [4..7], [8..9].
	want := []int32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i, c := range m.OfApp {
		if c != want[i] {
			t.Fatalf("OfApp = %v, want %v", m.OfApp, want)
		}
	}
	if len(m.Members[2]) != 2 {
		t.Fatalf("last cluster has %d members", len(m.Members[2]))
	}
}

func TestClusteringPZeroMatchesAtMostOnce(t *testing.T) {
	// At p=0 the clustering model degenerates to ZIPF-at-most-once; the
	// two simulated curves should be statistically indistinguishable.
	cfg := smallCfg()
	cfg.ClusterP = 0
	a, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator(ZipfAtMostOnce, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ca := a.Run(5).Curve()
	cb := b.Run(5).Curve()
	d := dist.MeanRelativeError(ca, cb)
	if d > 0.35 {
		t.Fatalf("p=0 clustering deviates from at-most-once by %v", d)
	}
}

func TestStreamMatchesRunDistribution(t *testing.T) {
	cfg := smallCfg()
	s, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, cfg.Apps)
	var events int64
	got := s.Stream(11, func(e Event) bool {
		counts[e.App]++
		events++
		return true
	})
	if got != events {
		t.Fatalf("Stream returned %d, delivered %d", got, events)
	}
	want := float64(cfg.Users) * cfg.DownloadsPerUser
	if math.Abs(float64(events)-want) > want*0.05 {
		t.Fatalf("stream produced %d events, want ~%v", events, want)
	}
	// The stream's aggregate curve should resemble Run's.
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	streamCurve := dist.NewRankCurve(vals)
	runCurve := s.Run(11).Curve()
	if d := dist.MeanRelativeError(runCurve, streamCurve); d > 0.8 {
		t.Fatalf("stream and run curves diverge: %v", d)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	s, err := NewSimulator(Zipf, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	n := s.Stream(1, func(Event) bool { return false })
	if n != 1 {
		t.Fatalf("early-stopped stream delivered %d events", n)
	}
}

func TestStreamFetchAtMostOnce(t *testing.T) {
	cfg := Config{
		Apps: 100, Users: 50, DownloadsPerUser: 20,
		ZipfGlobal: 1.6, ZipfCluster: 1.3, ClusterP: 0.8, Clusters: 10,
	}
	s, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int32]bool{}
	s.Stream(21, func(e Event) bool {
		key := [2]int32{e.User, e.App}
		if seen[key] {
			t.Fatalf("user %d downloaded app %d twice", e.User, e.App)
		}
		seen[key] = true
		return true
	})
}

func TestPaperExpectedDownloadsBounds(t *testing.T) {
	cfg := smallCfg()
	hg, hc := harmonicsFor(cfg)
	prev := math.Inf(1)
	for i := 1; i <= cfg.Apps; i += 97 {
		j := (i-1)/cfg.Clusters + 1
		d := paperExpectedDownloads(cfg, i, j, hg, hc)
		if d < 0 || d > float64(cfg.Users) {
			t.Fatalf("E[D(%d,%d)] = %v outside [0, U]", i, j, d)
		}
		if d > prev+1e-9 {
			t.Fatalf("expectation increased with rank at %d: %v > %v", i, d, prev)
		}
		prev = d
	}
}

func TestPredictCurveBoundedByUsers(t *testing.T) {
	cfg := smallCfg()
	for _, k := range []Kind{ZipfAtMostOnce, AppClustering} {
		c := PredictCurve(k, cfg)
		for i, v := range c.Downloads {
			if v < 0 || v > float64(cfg.Users)+1e-6 {
				t.Fatalf("%s: predicted downloads %v at rank %d outside [0, U]", k, v, i+1)
			}
		}
	}
}

func TestPredictCurveMatchesSimulation(t *testing.T) {
	// The analytic expectation should be close to a Monte Carlo run for
	// the head and trunk of the curve.
	cfg := Config{
		Apps: 500, Users: 20000, DownloadsPerUser: 10,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 10,
	}
	for _, k := range Kinds {
		s, err := NewSimulator(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim := s.Run(13).Curve()
		pred := PredictCurve(k, cfg)
		// Compare the top 20% of ranks, where both are well-populated.
		n := cfg.Apps / 5
		var relErr float64
		for i := 0; i < n; i++ {
			relErr += math.Abs(sim.Downloads[i]-pred.Downloads[i]) / pred.Downloads[i]
		}
		relErr /= float64(n)
		if relErr > 0.25 {
			t.Fatalf("%s: analytic vs simulated head error %v", k, relErr)
		}
	}
}

func TestPredictCurveZipfIsPure(t *testing.T) {
	cfg := smallCfg()
	c := PredictCurve(Zipf, cfg)
	// Pure Zipf in log-log space is a straight line: trunk exponent equals zr.
	got := c.TrunkExponent(0.01, 0.01)
	if math.Abs(got-cfg.ZipfGlobal) > 0.05 {
		t.Fatalf("pure ZIPF trunk exponent %v, want %v", got, cfg.ZipfGlobal)
	}
}

func TestPredictedHeadTruncation(t *testing.T) {
	// Fetch-at-most-once flattens the head: the at-most-once curve's top
	// value is far below pure ZIPF's for a steep exponent.
	cfg := Config{
		Apps: 5000, Users: 10000, DownloadsPerUser: 20,
		ZipfGlobal: 1.7, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
	pure := PredictCurve(Zipf, cfg)
	amo := PredictCurve(ZipfAtMostOnce, cfg)
	if amo.Top() > float64(cfg.Users) {
		t.Fatalf("at-most-once top %v exceeds user count", amo.Top())
	}
	if pure.Top() <= float64(cfg.Users) {
		t.Fatalf("pure top %v unexpectedly within user count", pure.Top())
	}
}

func TestFitRecoversParameters(t *testing.T) {
	// Generate synthetic "measured" data from known parameters, then check
	// that the fitter picks nearby values and ranks APP-CLUSTERING best.
	trueCfg := Config{
		Apps: 1500, Users: 30000, DownloadsPerUser: 12,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
	s, err := NewSimulator(AppClustering, trueCfg)
	if err != nil {
		t.Fatal(err)
	}
	observed := s.Run(17).Curve()
	spec := DefaultFitSpec()
	spec.Users = []int{trueCfg.Users}
	results, err := fitAll(observed, spec)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Kind != AppClustering {
		t.Fatalf("best model is %s, want APP-CLUSTERING (distances: %v, %v, %v)",
			results[0].Kind, results[0].Distance, results[1].Distance, results[2].Distance)
	}
	best := results[0]
	if math.Abs(best.Config.ZipfGlobal-trueCfg.ZipfGlobal) > 0.31 {
		t.Fatalf("fitted zr = %v, want ~%v", best.Config.ZipfGlobal, trueCfg.ZipfGlobal)
	}
	if best.Config.ClusterP < 0.7 {
		t.Fatalf("fitted p = %v, want high", best.Config.ClusterP)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(Zipf, dist.RankCurve{}, DefaultFitSpec()); err == nil {
		t.Fatal("empty curve accepted")
	}
	zero := dist.RankCurve{Downloads: []float64{0, 0}}
	if _, err := Fit(Zipf, zero, DefaultFitSpec()); err == nil {
		t.Fatal("all-zero curve accepted")
	}
	spec := DefaultFitSpec()
	spec.ZipfGlobal = nil
	good := dist.RankCurve{Downloads: []float64{10, 5, 2}}
	if _, err := Fit(Zipf, good, spec); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestUserSweepMinimumNearTopDownloads(t *testing.T) {
	// Figure 10: distance is minimized when U is near the most popular
	// app's download count.
	trueCfg := Config{
		Apps: 800, Users: 20000, DownloadsPerUser: 10,
		ZipfGlobal: 1.5, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 20,
	}
	s, err := NewSimulator(AppClustering, trueCfg)
	if err != nil {
		t.Fatal(err)
	}
	observed := s.Run(29).Curve()
	fractions := []float64{0.1, 0.25, 0.5, 1, 2, 5, 10}
	spec := DefaultFitSpec()
	ds, err := userSweep(AppClustering, observed, spec, fractions)
	if err != nil {
		t.Fatal(err)
	}
	// Find the argmin; it should be one of the fractions near 1.
	minI := 0
	for i, d := range ds {
		if d < ds[minI] {
			minI = i
		}
	}
	if fractions[minI] < 0.25 || fractions[minI] > 2 {
		t.Fatalf("distance minimized at fraction %v (distances %v), want near 1", fractions[minI], ds)
	}
}

func TestParetoEffectInClusteringWorkload(t *testing.T) {
	// The headline Figure 2 shape: top 10% of apps should hold the large
	// majority of downloads.
	cfg := Config{
		Apps: 3000, Users: 30000, DownloadsPerUser: 20,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 34,
	}
	s, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(31)
	vals := make([]float64, len(res.Downloads))
	for i, d := range res.Downloads {
		vals[i] = float64(d)
	}
	share := stats.TopShare(vals, 0.10)
	if share < 0.5 || share > 0.99 {
		t.Fatalf("top-10%% share = %v, want a strong Pareto effect", share)
	}
}

// paperExpectedDownloads evaluates the paper's closed-form expectation
// (Eq. 5) for an app with overall rank i (1-based) and within-cluster rank
// j (1-based), under the APP-CLUSTERING model with C equal-size clusters:
//
//	D(i,j) = U * [ 1 - (1 - pG(i))^((1-p)d) * (1 - pc(j))^(p*d) ]
//
// The formula treats every cluster-based draw as if it could hit the app's
// own cluster, which overstates within-cluster exposure by a factor of C;
// the paper presents it as a simplified expectation ("for simplicity we
// assume that all C clusters have the same size"). PredictCurve uses
// a refinement that models cluster visits explicitly and matches the Monte
// Carlo simulators much more closely; this function is kept as the literal
// paper formula for reference and tests.
func paperExpectedDownloads(cfg Config, i, j int, hg, hc float64) float64 {
	pg := math.Pow(float64(i), -cfg.ZipfGlobal) / hg
	pc := math.Pow(float64(j), -cfg.ZipfCluster) / hc
	missGlobal := math.Pow(1-pg, (1-cfg.ClusterP)*cfg.DownloadsPerUser)
	missCluster := math.Pow(1-pc, cfg.ClusterP*cfg.DownloadsPerUser)
	return float64(cfg.Users) * (1 - missGlobal*missCluster)
}

// harmonicsFor returns the harmonic normalizers (global, per-cluster) that
// paperExpectedDownloads needs, assuming C equal clusters of size Apps/C
// (rounded up, matching RoundRobin).
func harmonicsFor(cfg Config) (hg, hc float64) {
	hg = dist.Harmonic(cfg.Apps, cfg.ZipfGlobal)
	sc := clusterSize(cfg)
	hc = dist.Harmonic(sc, cfg.ZipfCluster)
	return hg, hc
}

func clusterSize(cfg Config) int {
	c := cfg.Clusters
	if cfg.ClusterMap != nil {
		c = cfg.ClusterMap.Clusters()
	}
	if c < 1 {
		c = 1
	}
	sc := (cfg.Apps + c - 1) / c
	if sc < 1 {
		sc = 1
	}
	return sc
}

// fitAll fits every model kind to the observed curve and returns the
// results sorted by ascending distance (best first).
func fitAll(observed dist.RankCurve, spec FitSpec) ([]FitResult, error) {
	out := make([]FitResult, 0, len(Kinds))
	for _, k := range Kinds {
		f, err := Fit(k, observed, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out, nil
}

// userSweep evaluates the best-fit distance as a function of the simulated
// user population, reproducing Figure 10. fractions scale the observed
// top-app download count; the returned distances correspond 1:1 with
// fractions.
func userSweep(kind Kind, observed dist.RankCurve, spec FitSpec, fractions []float64) ([]float64, error) {
	top := observed.Top()
	if top <= 0 {
		return nil, fmt.Errorf("model: observed curve has no top value")
	}
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		u := int(f * top)
		if u < 1 {
			u = 1
		}
		s := spec
		s.Users = []int{u}
		res, err := Fit(kind, observed, s)
		if err != nil {
			return nil, err
		}
		out[i] = res.Distance
	}
	return out, nil
}
