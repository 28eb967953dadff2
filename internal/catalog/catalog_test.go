package catalog

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func testProfile() Profile {
	p := Profiles["anzhi"]
	return p.Scale(0.1) // 600 apps: fast tests
}

func TestGenerateValid(t *testing.T) {
	for _, name := range ProfileNames() {
		p := Profiles[name].Scale(0.1)
		c, err := Generate(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumApps() != p.Apps {
			t.Fatalf("%s: got %d apps, want %d", name, c.NumApps(), p.Apps)
		}
		if len(c.Categories) != p.Categories {
			t.Fatalf("%s: got %d categories, want %d", name, len(c.Categories), p.Categories)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := testProfile()
	a, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("sizes differ")
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Fatalf("app %d differs between same-seed runs:\n%+v\n%+v", i, a.Apps[i], b.Apps[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := testProfile()
	a, _ := Generate(p, 1)
	b, _ := Generate(p, 2)
	same := 0
	for i := range a.Apps {
		if a.Apps[i].Category == b.Apps[i].Category {
			same++
		}
	}
	if same == len(a.Apps) {
		t.Fatal("different seeds produced identical category assignment")
	}
}

// freePaidCounts returns the number of free and paid apps.
func freePaidCounts(c *Catalog) (free, paid int) {
	for i := range c.Apps {
		if c.Apps[i].Pricing == Paid {
			paid++
		} else {
			free++
		}
	}
	return free, paid
}

func TestPaidFraction(t *testing.T) {
	p := Profiles["slideme"] // 25.3% paid
	c, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	free, paid := freePaidCounts(c)
	frac := float64(paid) / float64(free+paid)
	if math.Abs(frac-p.PaidFraction) > 0.03 {
		t.Fatalf("paid fraction = %v, want ~%v", frac, p.PaidFraction)
	}
	for i := range c.Apps {
		a := &c.Apps[i]
		if a.Pricing == Paid && (a.Price < 0.5 || a.Price > 50) {
			t.Fatalf("paid app %d has price %v outside [0.5, 50]", a.ID, a.Price)
		}
		if a.Pricing == Paid && a.HasAds {
			t.Fatalf("paid app %d carries ads", a.ID)
		}
	}
}

func TestAdFraction(t *testing.T) {
	p := testProfile()
	c, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	withAds, free := 0, 0
	for i := range c.Apps {
		if c.Apps[i].Pricing == Free {
			free++
			if c.Apps[i].HasAds {
				withAds++
			}
		}
	}
	frac := float64(withAds) / float64(free)
	if math.Abs(frac-p.AdFraction) > 0.06 {
		t.Fatalf("ad fraction = %v, want ~%v", frac, p.AdFraction)
	}
}

func TestNoDominantCategory(t *testing.T) {
	// Figure 5(d): category sizes are skewed but no category dominates.
	p := Profiles["anzhi"]
	c, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.CategorySizes()
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	if frac := float64(maxSize) / float64(p.Apps); frac > 0.35 {
		t.Fatalf("largest category holds %.0f%% of apps; want no dominant category", frac*100)
	}
}

func TestDeveloperPortfolios(t *testing.T) {
	// Figure 16a: most developers ship one app; a small number ship many.
	p := Profiles["slideme"]
	c, err := Generate(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	single, maxApps := 0, 0
	for i := range c.Developers {
		n := len(c.Developers[i].Apps)
		if n == 1 {
			single++
		}
		if n > maxApps {
			maxApps = n
		}
	}
	frac := float64(single) / float64(len(c.Developers))
	if frac < 0.4 {
		t.Fatalf("only %.0f%% of developers have a single app; want a majority", frac*100)
	}
	if maxApps < 10 {
		t.Fatalf("largest portfolio is %d apps; want a heavy tail", maxApps)
	}
}

func TestCategoryRankOrder(t *testing.T) {
	p := testProfile()
	c, err := Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range c.Categories {
		apps := c.Categories[ci].Apps
		for i := 1; i < len(apps); i++ {
			qa := c.Apps[int(apps[i-1])].Quality
			qb := c.Apps[int(apps[i])].Quality
			if qb > qa {
				t.Fatalf("category %d not sorted by quality at %d: %v > %v", ci, i, qb, qa)
			}
		}
	}
}

// TestCategoryOrderIsTheReflectiveSortsOrder: rebuildIndexes ranks a
// category by a stable radix sort on ^Float64bits(Quality) where it called
// sort.Slice, then slices.SortFunc, with a comparator on the floats. The
// order is total, so all three must agree element for element — every market
// on record was drawn over the sort.Slice order. A generated catalog has no
// quality ties, no one-member and no empty category, and no two qualities an
// ulp apart, so each is forced: ties across half a category, neighbours that
// differ in the key's last bit only, the ends of (0, 1], a category of one
// and a category of none.
func TestCategoryOrderIsTheReflectiveSortsOrder(t *testing.T) {
	p := testProfile()
	p.Apps = 20_000
	c, err := Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	members := c.Categories[0].Apps
	for _, id := range members[:len(members)/2] {
		c.Apps[int(id)].Quality = 0.5
	}
	for k, id := range members[len(members)/2:] {
		q := &c.Apps[int(id)].Quality
		switch k % 4 {
		case 0:
			*q = math.Nextafter(0.5, 1)
		case 1:
			*q = math.Nextafter(0.5, 0)
		case 2:
			*q = 1
		case 3:
			*q = math.SmallestNonzeroFloat64
		}
	}
	// Category 1 keeps one member, category 2 none; category 3 takes them.
	for _, id := range c.Categories[1].Apps[1:] {
		c.Apps[int(id)].Category = 3
	}
	for _, id := range c.Categories[2].Apps {
		c.Apps[int(id)].Category = 3
	}
	rebuildIndexes(c)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if one, none := len(c.Categories[1].Apps), len(c.Categories[2].Apps); one != 1 || none != 0 {
		t.Fatalf("categories 1 and 2 hold %d and %d apps, want 1 and 0", one, none)
	}
	for ci := range c.Categories {
		got := c.Categories[ci].Apps
		want := append([]AppID(nil), got...)
		// Undo the order first, or sort.Slice is handed its own answer.
		sort.Slice(want, func(x, y int) bool { return want[x] < want[y] })
		sort.Slice(want, func(x, y int) bool {
			ax, ay := &c.Apps[int(want[x])], &c.Apps[int(want[y])]
			if ax.Quality != ay.Quality {
				return ax.Quality > ay.Quality
			}
			return ax.ID < ay.ID
		})
		if !slices.Equal(got, want) {
			t.Fatalf("category %d (%d apps): the radix sort and sort.Slice order its members differently", ci, len(got))
		}
	}
}

func TestAddApp(t *testing.T) {
	p := testProfile()
	c, err := Generate(p, 19)
	if err != nil {
		t.Fatal(err)
	}
	before := c.NumApps()
	id := c.AddApp(App{
		Dev: 0, Category: 3, Pricing: Free, SizeMB: 2, AddedDay: 5,
		UpdateRate: 0.001, Quality: 0.5,
	})
	if int(id) != before {
		t.Fatalf("AddApp returned ID %d, want %d", id, before)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("catalog invalid after AddApp: %v", err)
	}
	found := false
	for _, a := range c.Categories[3].Apps {
		if a == id {
			found = true
		}
	}
	if !found {
		t.Fatal("new app missing from its category index")
	}
}

func TestScale(t *testing.T) {
	p := Profiles["anzhi"]
	q := p.Scale(0.5)
	if q.Apps != p.Apps/2 || q.Users != p.Users/2 {
		t.Fatalf("Scale(0.5): apps %d users %d", q.Apps, q.Users)
	}
	tiny := p.Scale(0.000001)
	if tiny.Apps < 1 || tiny.Users < 1 {
		t.Fatal("Scale should keep at least one app and user")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Profile{Name: "x", Apps: 0, Categories: 1}, 1); err == nil {
		t.Fatal("zero apps accepted")
	}
	if _, err := Generate(Profile{Name: "x", Apps: 1, Categories: 0}, 1); err == nil {
		t.Fatal("zero categories accepted")
	}
	if _, err := Generate(Profile{Name: "x", Apps: 1, Categories: 1, PaidFraction: 1.5}, 1); err == nil {
		t.Fatal("bad paid fraction accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := testProfile()
	c, _ := Generate(p, 23)
	c.Apps[5].Category = CategoryID(len(c.Categories)) // out of range
	if err := c.Validate(); err == nil {
		t.Fatal("Validate missed an out-of-range category")
	}
}

func TestQualityInRangeProperty(t *testing.T) {
	p := testProfile()
	if err := quick.Check(func(seed uint8) bool {
		c, err := Generate(p, uint64(seed)+1)
		if err != nil {
			return false
		}
		for i := range c.Apps {
			q := c.Apps[i].Quality
			if q <= 0 || q > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
