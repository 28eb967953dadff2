package catalog

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"planetapps/internal/dist"
	"planetapps/internal/rng"
)

// CategoryNames are the SlideMe category labels the paper's Figures 15 and
// 18 use. Stores with more categories (Anzhi has 34) reuse these plus
// numbered extras.
var CategoryNames = []string{
	"music", "fun/games", "utilities", "productivity", "entertainment",
	"religion", "travel", "educational", "social", "communications",
	"e-books", "lifestyle", "wallpapers", "health/fitness", "other",
	"collaboration", "location/maps", "home/hobby", "enterprise", "developer",
}

// Profile describes one store's catalog population. The defaults in
// Profiles are calibrated to Table 1 and Section 6 of the paper, scaled
// down so every experiment runs on a laptop.
type Profile struct {
	// Name of the store profile (e.g. "anzhi").
	Name string
	// Apps is the catalog size at the start of the measurement period.
	Apps int
	// Categories is the number of app categories (clusters).
	Categories int
	// PaidFraction is the fraction of paid apps (0 for the Chinese stores;
	// 0.253 for SlideMe).
	PaidFraction float64
	// AdFraction is the probability a free app embeds an ad library
	// (the paper measured 0.67-0.677 on SlideMe).
	AdFraction float64
	// NewAppsPerDay is the mean daily arrival rate of new apps.
	NewAppsPerDay float64
	// Users is the simulated user population size.
	Users int
	// DownloadsPerUser is the mean number of downloads per user over the
	// measurement period.
	DownloadsPerUser float64
	// ZipfGlobal is the exponent of the store-wide app appeal
	// distribution. It is calibrated to the measured trunk slopes of the
	// paper's Figure 3 (anzhi 1.42, appchina 1.51, 1mobile 0.92, slideme
	// 0.90) — the slopes the generated curves should exhibit — not to the
	// zr values the paper's generative model fits recover.
	ZipfGlobal float64
	// ZipfCluster is the within-category concentration exponent (the
	// paper's fitted zc values, 1.4-1.5).
	ZipfCluster float64
	// ClusterP is the probability a download is clustering-driven (p).
	ClusterP float64
	// CategorySkew shapes how unevenly apps spread over categories; 0 is
	// even, larger is more skewed. Figure 5(d) shows no dominant category
	// (max ~12% of downloads), so the skew is mild.
	CategorySkew float64
	// PriceLogMu/PriceLogSigma parameterize the lognormal paid-app price
	// distribution (the paper's average paid price is $3.9, negatively
	// correlated with popularity).
	PriceLogMu    float64
	PriceLogSigma float64
	// MeanUpdateRate is the mean per-day app update probability. Figure 4:
	// >80% of apps see no update in two months.
	MeanUpdateRate float64
}

// Profiles holds laptop-scale calibrations of the four monitored stores.
// Apps/users/downloads are scaled ~10x down from Table 1; distributional
// parameters are taken from the paper's fitted values.
var Profiles = map[string]Profile{
	"anzhi": {
		Name: "anzhi", Apps: 6000, Categories: 34, PaidFraction: 0,
		AdFraction: 0.67, NewAppsPerDay: 3, Users: 120000, DownloadsPerUser: 12,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	},
	"appchina": {
		Name: "appchina", Apps: 5500, Categories: 30, PaidFraction: 0,
		AdFraction: 0.67, NewAppsPerDay: 34, Users: 110000, DownloadsPerUser: 14,
		ZipfGlobal: 1.5, ZipfCluster: 1.2, ClusterP: 0.9, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	},
	"1mobile": {
		Name: "1mobile", Apps: 15000, Categories: 30, PaidFraction: 0,
		AdFraction: 0.67, NewAppsPerDay: 21, Users: 50000, DownloadsPerUser: 8,
		ZipfGlobal: 0.95, ZipfCluster: 1.4, ClusterP: 0.95, CategorySkew: 0.35,
		PriceLogMu: 1.0, PriceLogSigma: 0.8, MeanUpdateRate: 0.003,
	},
	"slideme": {
		Name: "slideme", Apps: 2200, Categories: 20, PaidFraction: 0.253,
		AdFraction: 0.67, NewAppsPerDay: 3.5, Users: 60000, DownloadsPerUser: 6,
		ZipfGlobal: 0.9, ZipfCluster: 1.2, ClusterP: 0.9, CategorySkew: 0.6,
		PriceLogMu: 1.05, PriceLogSigma: 0.75, MeanUpdateRate: 0.003,
	},
}

// ProfileNames returns the store profile names in a stable order.
func ProfileNames() []string {
	names := make([]string, 0, len(Profiles))
	for n := range Profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scale returns a copy of p with the population sizes multiplied by f
// (distribution parameters untouched). Useful for quick tests (f < 1) or
// paper-scale runs (f > 1). DownloadsPerUser is also scaled: scaling apps
// shrinks categories, so per-user download depth must shrink with them or
// users exhaust their categories and the popularity shapes collapse.
func (p Profile) Scale(f float64) Profile {
	q := p
	q.Apps = max(1, int(float64(p.Apps)*f))
	q.Users = max(1, int(float64(p.Users)*f))
	q.NewAppsPerDay = p.NewAppsPerDay * f
	q.DownloadsPerUser = p.DownloadsPerUser * f
	// Keep at least two downloads per user: below that the clustering
	// dynamics (which need a second download) vanish entirely.
	if q.DownloadsPerUser < 2 {
		q.DownloadsPerUser = 2
	}
	return q
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds a synthetic catalog for the profile, deterministically
// from the seed. The same (profile, seed) pair always yields the same
// catalog.
func Generate(p Profile, seed uint64) (*Catalog, error) {
	if p.Apps < 1 {
		return nil, fmt.Errorf("catalog: profile %q has no apps", p.Name)
	}
	if p.Categories < 1 {
		return nil, fmt.Errorf("catalog: profile %q has no categories", p.Name)
	}
	if p.PaidFraction < 0 || p.PaidFraction > 1 {
		return nil, fmt.Errorf("catalog: paid fraction %v out of range", p.PaidFraction)
	}
	r := rng.New(seed)

	c := &Catalog{
		Name:  p.Name,
		Start: time.Date(2012, time.March, 1, 0, 0, 0, 0, time.UTC),
	}

	// Categories with mildly skewed sizes: weight_i = (i+1)^-skew, shuffled
	// so the largest category is not always category 0.
	weights := make([]float64, p.Categories)
	for i := range weights {
		weights[i] = 1 / powSkew(float64(i+1), p.CategorySkew)
	}
	r.Shuffle(len(weights), func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	catDist := dist.MustCategorical(weights)
	c.Categories = make([]Category, p.Categories)
	for i := range c.Categories {
		c.Categories[i] = Category{ID: CategoryID(i), Name: categoryName(i)}
	}

	// Developer portfolio sizes are Pareto: most developers ship one app, a
	// couple of accounts ship hundreds (Figure 16a; the paper observes 60%
	// of free-app and 70% of paid-app developers with a single app). How
	// many accounts there are is known only once the draws have covered
	// every app, so the sizes are the one thing here that grows by append;
	// account di then owns the next sizes[di] app IDs.
	portfolio := dist.Pareto{Xm: 1, Alpha: 1.35}
	var sizes []int32
	for assigned := 0; assigned < p.Apps; {
		n := dist.BoundedParetoInt(r, portfolio, 1, p.Apps/4+1)
		if assigned+n > p.Apps {
			n = p.Apps - assigned
		}
		sizes = append(sizes, int32(n))
		assigned += n
	}
	c.Developers = make([]Developer, len(sizes))
	nameDevelopers(c.Developers)

	// Developers focus on one or few categories (Figure 16b): each account
	// gets a small home set of categories; its apps land there with high
	// probability.
	price := dist.LogNormal{Mu: p.PriceLogMu, Sigma: p.PriceLogSigma}
	size := dist.LogNormal{Mu: 1.1, Sigma: 0.6} // mean ~3.5 MB
	c.Apps = make([]App, p.Apps)
	next := 0
	for di, n := range sizes {
		var home [3]CategoryID
		home[0] = CategoryID(catDist.Sample(r))
		homes := 1
		// 25% of developers use a second home category, 5% a third.
		if r.Bool(0.25) {
			home[homes] = CategoryID(catDist.Sample(r))
			homes++
		}
		if r.Bool(0.05) {
			home[homes] = CategoryID(catDist.Sample(r))
			homes++
		}
		for i := next; i < next+int(n); i++ {
			a := &c.Apps[i]
			a.ID = AppID(i)
			a.Dev = DevID(di)
			if r.Bool(0.9) {
				a.Category = home[r.Intn(homes)]
			} else {
				a.Category = CategoryID(catDist.Sample(r))
			}
			if r.Bool(p.PaidFraction) {
				a.Pricing = Paid
				a.Price = clampPrice(price.Sample(r))
			} else {
				a.Pricing = Free
				a.HasAds = r.Bool(p.AdFraction)
			}
			a.SizeMB = size.Sample(r)
			a.AddedDay = -r.Intn(720) // existing catalog accumulated over ~2 years
			a.UpdateRate = updateRate(r, p.MeanUpdateRate)
			a.Versions = 1
			// Quality is uniform; ranking skew comes from the Zipf appeal
			// distributions the workload models impose, not from quality
			// itself, which only orders apps within their category.
			a.Quality = r.Float64()
			if a.Quality == 0 {
				a.Quality = 1e-6
			}
		}
		next += int(n)
	}

	rebuildIndexes(c)
	return c, nil
}

// rankKey carries what ranks an app within its category: ascending key is
// descending quality.
type rankKey struct {
	key uint64
	id  AppID
	cat CategoryID
}

// rebuildIndexes recomputes the per-category and per-developer membership
// lists from the per-app fields, ordering category members by descending
// quality so Category.Apps[0] is the within-category rank-1 app. The order
// is total (ties fall to the lower ID), so which sort produces it is free.
//
// Count, then fill: one pass counts every list's members, each list is cut
// at its final size (cap == len, so a later AddApp moves the list it grows
// instead of writing into its neighbour) out of one array per family, and
// the ranking is one stable sort of the whole catalog on packed keys, dealt
// out to the categories in that order, never a comparison through c.Apps.
// The key is ^Float64bits(Quality): the bit pattern of a positive finite
// float orders as the float does — the only qualities Generate draws and
// Validate admits — and the complement reverses it. Apps are keyed in ID
// order and the sort is stable, which is the tie rule.
func rebuildIndexes(c *Catalog) {
	n := len(c.Apps)
	catAt := make([]int, len(c.Categories))
	devAt := make([]int, len(c.Developers))
	keys := make([]rankKey, 2*n)
	for i := range c.Apps {
		a := &c.Apps[i]
		catAt[a.Category]++
		devAt[a.Dev]++
		keys[i] = rankKey{^math.Float64bits(a.Quality), a.ID, a.Category}
	}
	// Counts become fill cursors as each list is cut.
	catApps := make([]AppID, n)
	off := 0
	for ci, k := range catAt {
		c.Categories[ci].Apps = catApps[off : off+k : off+k]
		catAt[ci], off = off, off+k
	}
	devApps := make([]AppID, n)
	off = 0
	for di, k := range devAt {
		c.Developers[di].Apps = devApps[off : off+k : off+k]
		devAt[di], off = off, off+k
	}
	for i := range c.Apps {
		a := &c.Apps[i]
		devApps[devAt[a.Dev]] = a.ID
		devAt[a.Dev]++
	}
	for _, k := range sortByKey(keys[:n], keys[n:]) {
		catApps[catAt[k.cat]] = k.id
		catAt[k.cat]++
	}
}

// sortByKey orders keys by ascending key, equal keys staying in the order
// they came in: a byte-at-a-time radix sort between keys and tmp (of the
// same length), whichever of the two ends up holding the result being
// returned. A comparison sort spends a mispredicted branch a comparison on
// uniform keys: 12 ms of a 100k-app Generate's 37, whatever it compares.
func sortByKey(keys, tmp []rankKey) []rankKey {
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k.key>>(8*d))]++
		}
	}
	for d := range counts {
		at := &counts[d]
		off, skip := 0, false
		for b, k := range at {
			skip = skip || (k == len(keys)) // every key has this byte: already in order
			at[b], off = off, off+k
		}
		if skip {
			continue
		}
		for _, k := range keys {
			b := byte(k.key >> (8 * d))
			tmp[at[b]] = k
			at[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// nameDevelopers numbers devs from 0 and names them "dev-NNNN" (see
// appendDevName), every name a substring of one string.
func nameDevelopers(devs []Developer) {
	size := 0
	for i := range devs {
		size += devNameLen(i)
	}
	buf := make([]byte, 0, size)
	for i := range devs {
		buf = appendDevName(buf, i)
	}
	names := string(buf)
	for i, off := 0, 0; i < len(devs); i++ {
		n := devNameLen(i)
		devs[i] = Developer{ID: DevID(i), Name: names[off : off+n]}
		off += n
	}
}

// appendDevName appends account i's name, fmt's "dev-%04d".
func appendDevName(b []byte, i int) []byte {
	b = append(b, "dev-"...)
	for pad := 1000; pad > 1 && i < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

func devNameLen(i int) int {
	n := len("dev-0000")
	for lim := 10000; i >= lim; lim *= 10 {
		n++
	}
	return n
}

// AddApp appends a newly published app (used by the market simulator for
// daily arrivals) and updates the membership indexes. The caller fills the
// returned app's fields except ID, which is assigned here.
func (c *Catalog) AddApp(a App) AppID {
	a.ID = AppID(len(c.Apps))
	if a.Versions == 0 {
		a.Versions = 1
	}
	c.Apps = append(c.Apps, a)
	c.Categories[a.Category].Apps = insertByQuality(c, c.Categories[a.Category].Apps, a.ID)
	for int(a.Dev) >= len(c.Developers) {
		n := len(c.Developers)
		c.Developers = append(c.Developers, Developer{ID: DevID(n), Name: string(appendDevName(nil, n))})
	}
	d := &c.Developers[int(a.Dev)]
	d.Apps = append(d.Apps, a.ID)
	return a.ID
}

func insertByQuality(c *Catalog, apps []AppID, id AppID) []AppID {
	q := c.Apps[int(id)].Quality
	pos := sort.Search(len(apps), func(i int) bool {
		return c.Apps[int(apps[i])].Quality < q
	})
	apps = append(apps, 0)
	copy(apps[pos+1:], apps[pos:])
	apps[pos] = id
	return apps
}

func categoryName(i int) string {
	if i < len(CategoryNames) {
		return CategoryNames[i]
	}
	return fmt.Sprintf("category-%02d", i)
}

func clampPrice(v float64) float64 {
	if v < 0.5 {
		v = 0.5
	}
	if v > 50 {
		v = 50
	}
	// Round to cents so income arithmetic is stable.
	return float64(int(v*100+0.5)) / 100
}

// updateRate draws a per-day update probability: most apps essentially
// never update; a small minority update frequently.
func updateRate(r *rng.RNG, mean float64) float64 {
	// 80% of apps update at ~1/10 the mean rate; 20% carry the rest.
	if r.Bool(0.8) {
		return mean * 0.125
	}
	return mean * 4.5
}

func powSkew(x, skew float64) float64 {
	if skew == 0 {
		return 1
	}
	return math.Pow(x, skew)
}
