package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/db"
	"planetapps/internal/snapshot"
)

// Load reads a crawl database as the dataset the runners read: Figure 1's
// local database joined to the analyses. An app's place in the series is
// its rank in (first day seen, ID) order, so the apps observed on a day are
// a prefix of those observed on the next, as a series requires; a store
// that numbers its apps densely as they arrive, as every store here does,
// keeps its IDs, and a fault-free crawl's dataset is the market's own.
// Categories and developers are numbered in name order; quality and update
// rate, which no listing shows, stay zero.
//
// Load refuses what a series cannot represent and names the app and the
// day: an app's observations out of order or repeated, an app missing on a
// day after it was first seen, and a comment on an app the crawl never
// listed.
func Load(d *db.DB) (*Dataset, error) {
	store := d.Store()
	if store == "" {
		return nil, fmt.Errorf("experiments: the database names no store")
	}
	apps := d.Apps()
	if len(apps) == 0 {
		return nil, fmt.Errorf("experiments: the crawl lists no app")
	}
	last := math.MinInt
	for _, a := range apps {
		if len(a.Daily) == 0 {
			return nil, fmt.Errorf("experiments: app %d was never observed", a.ID)
		}
		for i := 1; i < len(a.Daily); i++ {
			if a.Daily[i].Day <= a.Daily[i-1].Day {
				return nil, fmt.Errorf("experiments: app %d: day %d observed after day %d",
					a.ID, a.Daily[i].Day, a.Daily[i-1].Day)
			}
		}
		last = max(last, a.Daily[len(a.Daily)-1].Day)
	}
	for _, a := range apps {
		// The days are increasing, so the first one that is not its
		// predecessor's successor is where the app went missing.
		day := a.Daily[0].Day
		for _, st := range a.Daily[1:] {
			if st.Day != day+1 {
				break
			}
			day++
		}
		if day != last {
			return nil, fmt.Errorf("experiments: app %d is missing on day %d, after it was first seen on day %d",
				a.ID, day+1, a.Daily[0].Day)
		}
	}
	// d.Apps is in ID order, which the stable sort keeps within a first day.
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].Daily[0].Day < apps[j].Daily[0].Day })

	series := &snapshot.Series{Store: store}
	n := 0 // the apps seen by the day being built: a prefix of apps
	for day := apps[0].Daily[0].Day; ; day++ {
		for n < len(apps) && apps[n].Daily[0].Day <= day {
			n++
		}
		sd := &snapshot.Day{
			Index:               day,
			CumulativeDownloads: make([]int64, n),
			Versions:            make([]int, n),
			Price:               make([]float64, n),
		}
		for p, a := range apps[:n] {
			st := a.Daily[day-a.Daily[0].Day]
			sd.CumulativeDownloads[p], sd.Versions[p], sd.Price[p] = st.Downloads, st.Version, st.Price
		}
		if err := series.Append(sd); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if day == last {
			break
		}
	}

	cat, err := catalogOf(store, apps)
	if err != nil {
		return nil, err
	}
	at := make(map[int32]catalog.AppID, len(apps))
	for p, a := range apps {
		at[a.ID] = catalog.AppID(p)
	}
	crawled := d.Comments()
	// A generated stream is ordered by time, then by user: no user posts
	// twice in one second. The app breaks the ties a hostile database can
	// hold; it holds one comment per (app, user, time).
	slices.SortFunc(crawled, func(a, b db.CommentRecord) int {
		return cmp.Or(cmp.Compare(a.UnixTime, b.UnixTime), cmp.Compare(a.User, b.User), cmp.Compare(a.App, b.App))
	})
	cs := make([]comments.Comment, len(crawled))
	for i, c := range crawled {
		p, ok := at[c.App]
		if !ok {
			return nil, fmt.Errorf("experiments: user %d commented on app %d on %s, an app the crawl never listed",
				c.User, c.App, time.Unix(c.UnixTime, 0).UTC().Format(time.DateOnly))
		}
		cs[i] = comments.Comment{User: catalog.UserID(c.User), App: p, Rating: c.Rating, Time: time.Unix(c.UnixTime, 0)}
	}
	return &Dataset{Series: series, Catalog: cat, Comments: cs}, nil
}

// catalogOf is the catalog view of the crawled apps, in series order: what
// each app's last listing showed. Developers are numbered, not listed.
func catalogOf(store string, apps []db.AppRecord) (*catalog.Catalog, error) {
	catIDs, catNames := numbered(apps, func(a *db.AppRecord) string { return a.Category })
	if len(catNames) > math.MaxInt16+1 {
		return nil, fmt.Errorf("experiments: the crawl lists %d categories, more than a catalog holds", len(catNames))
	}
	devIDs, _ := numbered(apps, func(a *db.AppRecord) string { return a.Developer })
	cat := &catalog.Catalog{Name: store, Apps: make([]catalog.App, len(apps)), Categories: make([]catalog.Category, len(catNames))}
	for i, name := range catNames {
		cat.Categories[i] = catalog.Category{ID: catalog.CategoryID(i), Name: name}
	}
	for p := range apps {
		a := &apps[p]
		cat.Apps[p] = catalog.App{
			ID: catalog.AppID(p), Dev: catalog.DevID(devIDs[a.Developer]), Category: catalog.CategoryID(catIDs[a.Category]),
			Price: a.Price, HasAds: a.HasAds, AddedDay: a.Daily[0].Day, Versions: a.Daily[len(a.Daily)-1].Version,
		}
		if a.Paid {
			cat.Apps[p].Pricing = catalog.Paid
		}
	}
	return cat, nil
}

// numbered numbers the distinct values of key over apps in sorted order.
func numbered(apps []db.AppRecord, key func(*db.AppRecord) string) (map[string]int, []string) {
	ids := map[string]int{}
	for i := range apps {
		ids[key(&apps[i])] = 0
	}
	names := make([]string, 0, len(ids))
	for name := range ids {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		ids[name] = i
	}
	return ids, names
}
