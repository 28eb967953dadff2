// Package catalog defines the appstore entity model — apps, categories,
// developers, users, versions — and generates synthetic catalogs calibrated
// to the four store profiles studied in the paper (SlideMe, 1Mobile,
// AppChina, Anzhi).
//
// The real stores' catalogs are proprietary; the generator substitutes a
// statistically similar population: category sizes, free/paid mix, price
// distribution, developer portfolio sizes, ad-library prevalence and update
// behaviour all follow the distributions the paper reports.
package catalog

import (
	"fmt"
	"time"
)

// AppID identifies an app within one store.
type AppID int32

// DevID identifies a developer account.
type DevID int32

// CategoryID identifies an app category (cluster).
type CategoryID int16

// UserID identifies a store user.
type UserID int32

// Pricing distinguishes the two revenue strategies the paper contrasts.
type Pricing int8

const (
	// Free apps are downloadable at no charge; most carry ad libraries.
	Free Pricing = iota
	// Paid apps require payment at download time and rarely carry ads.
	Paid
)

func (p Pricing) String() string {
	if p == Paid {
		return "paid"
	}
	return "free"
}

// App is one application listing in a store catalog.
type App struct {
	ID       AppID
	Dev      DevID
	Category CategoryID
	Pricing  Pricing
	// HasAds reports whether the binary embeds at least one of the popular
	// advertising libraries (the paper detected these with Androguard; we
	// assign the flag at generation time). It sits beside Pricing so the
	// two one-byte fields share a word: a row is 64 bytes, not 72.
	HasAds bool
	// Price is the list price in dollars; zero for free apps.
	Price float64
	// SizeMB is the APK size in megabytes (the paper's average is 3.5 MB).
	SizeMB float64
	// AddedDay is the simulated day the app appeared in the store (day 0 is
	// the first day of the measurement period; negative values mean the app
	// predates it).
	AddedDay int
	// UpdateRate is the per-day probability that the developer ships a new
	// version. Most apps are updated rarely (Figure 4).
	UpdateRate float64
	// Versions counts shipped versions, starting at 1.
	Versions int
	// Quality in (0,1] scales the app's intrinsic appeal; it correlates the
	// per-category rank with income so that quality beats quantity.
	Quality float64
}

// Category is a thematic cluster of apps.
type Category struct {
	ID   CategoryID
	Name string
	// Apps lists the member app IDs in descending within-category rank
	// order (rank 1 first) after Finalize.
	Apps []AppID
}

// Developer is a publisher account owning one or more apps.
type Developer struct {
	ID   DevID
	Name string
	Apps []AppID
}

// Catalog is a full synthetic appstore snapshot.
type Catalog struct {
	Name       string
	Apps       []App
	Categories []Category
	Developers []Developer
	// Start is the wall-clock time of simulated day 0, used when rendering
	// timestamps; the simulation itself is day-indexed.
	Start time.Time
}

// NumApps returns the number of apps in the catalog.
func (c *Catalog) NumApps() int { return len(c.Apps) }

// App returns the app with the given ID. IDs are dense indices.
func (c *Catalog) App(id AppID) *App {
	return &c.Apps[int(id)]
}

// CategoryOf returns the category ID of the given app.
func (c *Catalog) CategoryOf(id AppID) CategoryID {
	return c.Apps[int(id)].Category
}

// CategorySizes returns the number of apps per category, indexed by
// CategoryID.
func (c *Catalog) CategorySizes() []int {
	sizes := make([]int, len(c.Categories))
	for i := range c.Apps {
		sizes[c.Apps[i].Category]++
	}
	return sizes
}

// Validate checks internal consistency: dense IDs, members agreeing with
// per-app fields, prices consistent with pricing. It returns the first
// inconsistency found.
func (c *Catalog) Validate() error {
	for i := range c.Apps {
		a := &c.Apps[i]
		if int(a.ID) != i {
			return fmt.Errorf("catalog: app at index %d has ID %d", i, a.ID)
		}
		if int(a.Category) < 0 || int(a.Category) >= len(c.Categories) {
			return fmt.Errorf("catalog: app %d references category %d of %d", a.ID, a.Category, len(c.Categories))
		}
		if int(a.Dev) < 0 || int(a.Dev) >= len(c.Developers) {
			return fmt.Errorf("catalog: app %d references developer %d of %d", a.ID, a.Dev, len(c.Developers))
		}
		if a.Pricing == Paid && a.Price <= 0 {
			return fmt.Errorf("catalog: paid app %d has price %v", a.ID, a.Price)
		}
		if a.Pricing == Free && a.Price != 0 {
			return fmt.Errorf("catalog: free app %d has price %v", a.ID, a.Price)
		}
		if a.Quality <= 0 || a.Quality > 1 {
			return fmt.Errorf("catalog: app %d has quality %v outside (0,1]", a.ID, a.Quality)
		}
	}
	seen := make(map[AppID]bool, len(c.Apps))
	for ci := range c.Categories {
		for _, id := range c.Categories[ci].Apps {
			if int(id) < 0 || int(id) >= len(c.Apps) {
				return fmt.Errorf("catalog: category %d lists unknown app %d", ci, id)
			}
			if c.Apps[int(id)].Category != CategoryID(ci) {
				return fmt.Errorf("catalog: category %d lists app %d whose category is %d", ci, id, c.Apps[int(id)].Category)
			}
			if seen[id] {
				return fmt.Errorf("catalog: app %d appears in two categories", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(c.Apps) {
		return fmt.Errorf("catalog: %d apps in category lists, %d apps total", len(seen), len(c.Apps))
	}
	for di := range c.Developers {
		for _, id := range c.Developers[di].Apps {
			if int(id) < 0 || int(id) >= len(c.Apps) {
				return fmt.Errorf("catalog: developer %d lists unknown app %d", di, id)
			}
			if c.Apps[int(id)].Dev != DevID(di) {
				return fmt.Errorf("catalog: developer %d lists app %d owned by %d", di, id, c.Apps[int(id)].Dev)
			}
		}
	}
	return nil
}
