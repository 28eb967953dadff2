// Package comments generates and processes per-user comment streams,
// substituting for the Anzhi comment dataset the paper's §4 analysis uses.
//
// The generator plants the behaviours the paper measured so the affinity
// pipeline can recover them: users comment on apps they downloaded, user
// download sequences exhibit the clustering effect (temporal category
// affinity), comment counts are heavy-tailed with 99% of users under ~30
// comments, and a small population of spam users posts hundreds of
// comments via automated scripts.
//
// A population Generate returns is read-only once it is installed on a
// store: every store handed the same slice serves one per-app index of it,
// built when the first store installs it, so an edit made in place after
// that reaches none of them. Clone it to change it.
package comments

import (
	"fmt"
	"sort"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/dist"
	"planetapps/internal/rng"
)

// Comment is one user comment with a rating, as crawled from a store's
// per-app comment pages.
type Comment struct {
	User catalog.UserID
	App  catalog.AppID
	// Rating is a 1-5 star rating; the paper only trusts comments that
	// carry one as download evidence.
	Rating int8
	// Time is the comment's timestamp.
	Time time.Time
}

// GenConfig controls comment-stream generation.
type GenConfig struct {
	// Users is the number of commenting users.
	Users int
	// Days spreads timestamps across this many days from the catalog start.
	Days int
}

// DefaultGenConfig returns users commenting over a 60-day period.
func DefaultGenConfig(users int) GenConfig {
	return GenConfig{Users: users, Days: 60}
}

// The generator's calibration to the paper's Anzhi observations: 92% of
// users under 10 comments, ~2% above 20, spam users posting hundreds.
const (
	// meanComments is the mean number of comments per ordinary user; the
	// per-user count is geometric, giving the heavy right tail of
	// Figure 5(a).
	meanComments = 3.5
	// clusterP is the probability that a user's next commented app comes
	// from the category of a previous one (the clustering effect).
	clusterP = 0.55
	// zipfApp is the within-category Zipf exponent for app selection.
	zipfApp = 1.1
	// spamFraction is the share of users that are spam posters.
	spamFraction = 0.003
	// spamComments is the mean number of comments posted by a spam user.
	spamComments = 300
	// ratingOmitP is the probability a comment carries no rating (rating
	// 0); such comments are dropped by the paper's filter.
	ratingOmitP = 0.1
)

// Validate reports the first invalid field.
func (g GenConfig) Validate() error {
	if g.Users < 1 {
		return fmt.Errorf("comments: Users = %d", g.Users)
	}
	if g.Days < 1 {
		return fmt.Errorf("comments: Days = %d", g.Days)
	}
	return nil
}

// Generate produces a time-ordered comment stream over the catalog's apps.
// Ordinary users follow the clustering effect: each subsequent comment is
// on an app from the category of a previous comment with probability
// clusterP. Spam users post rapid-fire comments on random apps, mimicking
// the automated posters the paper detected and filtered.
//
// It runs in two passes. The first makes every draw in stream order, but
// of each pick it keeps only the category and the uniform the category's
// Zipf consumes: a user's history is the categories of its picks, which is
// what clustering reads. The second, sortByTime's gather, turns each
// uniform into its app as it places the comment.
func Generate(c *catalog.Catalog, cfg GenConfig, seed uint64) ([]Comment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c.NumApps() == 0 {
		return nil, fmt.Errorf("comments: empty catalog")
	}
	r := rng.New(seed)

	// Per-category Zipf samplers over the category's rank-ordered members,
	// shared across categories of equal size; a category is picked in
	// proportion to its size.
	sizes := make([]int, len(c.Categories))
	weights := make([]float64, len(c.Categories))
	populated := false
	for i := range c.Categories {
		sizes[i] = len(c.Categories[i].Apps)
		weights[i] = float64(sizes[i])
		populated = populated || sizes[i] > 0
	}
	if !populated {
		return nil, fmt.Errorf("comments: catalog has no populated categories")
	}
	catZipf, err := dist.NewZipfs(sizes, zipfApp)
	if err != nil {
		return nil, err
	}
	catPick := dist.MustCategorical(weights)

	dayDur := 24 * time.Hour
	// How many comments a user posts is drawn as the user is reached, so the
	// draws grow by append, from room for the expected count (an ordinary
	// user posts meanComments on average, a spam user 1+spamComments);
	// sortByTime returns the population at its final size. Until then a
	// drawn comment's App is its pick's category, and us[i] the uniform
	// that picks the app in it.
	expected := (1-spamFraction)*meanComments + spamFraction*(1+spamComments)
	drawn := make([]Comment, 0, int(float64(cfg.Users)*expected))
	us := make([]float64, 0, cap(drawn))
	pick := func(cat catalog.CategoryID) catalog.CategoryID {
		us = append(us, r.Float64())
		return cat
	}
	pickAnywhere := func() catalog.CategoryID { return pick(catalog.CategoryID(catPick.Sample(r))) }
	var history []catalog.CategoryID // the current user's, reused from user to user
	for u := 0; u < cfg.Users; u++ {
		uid := catalog.UserID(u)
		if r.Bool(spamFraction) {
			// Spam user: a burst of comments within a few hours, random
			// apps, fixed rating (scripted).
			n := 1 + r.Poisson(spamComments)
			start := c.Start.Add(time.Duration(r.Intn(cfg.Days)) * dayDur)
			for k := 0; k < n; k++ {
				drawn = append(drawn, Comment{
					User:   uid,
					App:    catalog.AppID(pickAnywhere()),
					Rating: 5,
					Time:   start.Add(time.Duration(k) * 30 * time.Second),
				})
			}
			continue
		}
		n := 1 + dist.Geometric(r, 1/(meanComments))
		history = history[:0]
		when := c.Start.Add(time.Duration(r.Intn(cfg.Days)) * dayDur).
			Add(time.Duration(r.Intn(86400)) * time.Second)
		for k := 0; k < n; k++ {
			var cat catalog.CategoryID
			if len(history) > 0 && r.Bool(clusterP) {
				cat = pick(history[r.Intn(len(history))])
			} else {
				cat = pickAnywhere()
			}
			history = append(history, cat)
			rating := int8(1 + r.Intn(5))
			if r.Bool(ratingOmitP) {
				rating = 0
			}
			drawn = append(drawn, Comment{User: uid, App: catalog.AppID(cat), Rating: rating, Time: when})
			// Inter-comment gaps of hours to days.
			when = when.Add(time.Duration(1+r.Intn(72)) * time.Hour)
		}
	}
	return sortByTime(drawn, func(at int, cm *Comment) {
		cat := catalog.CategoryID(cm.App)
		cm.App = c.Categories[cat].Apps[catZipf[cat].Rank(us[at])-1]
	}), nil
}

// sortByTime returns cs ordered by timestamp, equal timestamps in the order
// they came in, in a new slice of exactly that length. It is a stable LSD
// radix sort of one key a comment — its instant, whole seconds since the
// population's earliest and then nanoseconds — a byte a pass from the
// least significant up, and a byte that is the same in every key costs no
// pass: Generate's instants are whole seconds within a few months, so
// three passes order them. The comments are then moved once, each to its
// place, and finish (if not nil) is given each one placed and its index in
// cs.
func sortByTime(cs []Comment, finish func(at int, c *Comment)) []Comment {
	out := make([]Comment, len(cs))
	if len(cs) == 0 {
		return out
	}
	first := cs[0].Time.Unix()
	for i := range cs {
		first = min(first, cs[i].Time.Unix())
	}
	keys := make([]timeKey, len(cs))
	var differ timeKey // a bit where some key differs from the first
	for i := range cs {
		k := timeKey{uint64(cs[i].Time.Unix()) - uint64(first), uint32(cs[i].Time.Nanosecond()), int32(i)}
		keys[i] = k
		differ.sec |= k.sec ^ keys[0].sec
		differ.nsec |= k.nsec ^ keys[0].nsec
	}
	into := make([]timeKey, len(cs))
	for d := 0; d < timeKeyBytes; d++ {
		if differ.byteAt(d) == 0 {
			continue
		}
		var at [257]int // at[v+1] counts byte v, then at[v] is where the next key with byte v goes
		for _, k := range keys {
			at[int(k.byteAt(d))+1]++
		}
		for v := 1; v < len(at); v++ {
			at[v] += at[v-1]
		}
		for _, k := range keys {
			v := k.byteAt(d)
			into[at[v]] = k
			at[v]++
		}
		keys, into = into, keys
	}
	for i, k := range keys {
		out[i] = cs[k.at]
		if finish != nil {
			finish(int(k.at), &out[i])
		}
	}
	return out
}

// timeKey is a comment's instant and its position in the unsorted stream.
type timeKey struct {
	sec  uint64 // whole seconds since the earliest comment
	nsec uint32
	at   int32
}

// timeKeyBytes is the number of radix digits in a timeKey's instant.
const timeKeyBytes = 12

// byteAt returns the instant's d-th byte, least significant first:
// nanoseconds' four, then seconds' eight.
func (k timeKey) byteAt(d int) byte {
	if d < 4 {
		return byte(k.nsec >> (8 * d))
	}
	return byte(k.sec >> (8 * (d - 4)))
}

// Filter applies the paper's cleaning rules to a raw comment stream:
// comments without a rating are dropped (ratings indicate actual
// downloads), and users with more than maxComments comments are discarded
// as spam. It returns the surviving comments in input order.
func Filter(cs []Comment, maxComments int) []Comment {
	perUser := map[catalog.UserID]int{}
	for _, c := range cs {
		if c.Rating > 0 {
			perUser[c.User]++
		}
	}
	out := make([]Comment, 0, len(cs))
	for _, c := range cs {
		if c.Rating <= 0 {
			continue
		}
		if maxComments > 0 && perUser[c.User] > maxComments {
			continue
		}
		out = append(out, c)
	}
	return out
}

// AppStrings builds per-user compressed app strings (successive duplicate
// comments on the same app suppressed) from a time-ordered comment stream.
func AppStrings(cs []Comment) map[int32][]catalog.AppID {
	raw := map[int32][]catalog.AppID{}
	for _, c := range cs {
		u := int32(c.User)
		s := raw[u]
		if len(s) > 0 && s[len(s)-1] == c.App {
			continue
		}
		raw[u] = append(s, c.App)
	}
	return raw
}

// CategoryStrings maps per-user app strings to category strings using the
// catalog's classification.
func CategoryStrings(c *catalog.Catalog, appStrings map[int32][]catalog.AppID) map[int32][]int {
	out := make(map[int32][]int, len(appStrings))
	for u, apps := range appStrings {
		s := make([]int, len(apps))
		for i, a := range apps {
			s[i] = int(c.CategoryOf(a))
		}
		out[u] = s
	}
	return out
}

// PerUserCounts returns the number of comments per user.
func PerUserCounts(cs []Comment) map[catalog.UserID]int {
	out := map[catalog.UserID]int{}
	for _, c := range cs {
		out[c.User]++
	}
	return out
}

// UniqueCategoriesPerUser returns, per user, the number of distinct
// categories the user commented on (Figure 5b).
func UniqueCategoriesPerUser(c *catalog.Catalog, cs []Comment) map[catalog.UserID]int {
	sets := map[catalog.UserID]map[catalog.CategoryID]struct{}{}
	for _, cm := range cs {
		s := sets[cm.User]
		if s == nil {
			s = map[catalog.CategoryID]struct{}{}
			sets[cm.User] = s
		}
		s[c.CategoryOf(cm.App)] = struct{}{}
	}
	out := make(map[catalog.UserID]int, len(sets))
	for u, s := range sets {
		out[u] = len(s)
	}
	return out
}

// TopKShare returns, averaged over users with at least two distinct apps
// commented, the percentage of each user's comments that fall in the
// user's top-k categories, for k = 1..maxK (Figure 5c).
func TopKShare(c *catalog.Catalog, cs []Comment, maxK int) []float64 {
	type userAgg struct {
		perCat map[catalog.CategoryID]int
		apps   map[catalog.AppID]struct{}
		total  int
	}
	users := map[catalog.UserID]*userAgg{}
	for _, cm := range cs {
		u := users[cm.User]
		if u == nil {
			u = &userAgg{perCat: map[catalog.CategoryID]int{}, apps: map[catalog.AppID]struct{}{}}
			users[cm.User] = u
		}
		u.perCat[c.CategoryOf(cm.App)]++
		u.apps[cm.App] = struct{}{}
		u.total++
	}
	// Accumulate in sorted user order: float addition is not associative,
	// so summing in map-iteration order would make the result vary run to
	// run.
	ids := make([]catalog.UserID, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sums := make([]float64, maxK)
	n := 0
	for _, id := range ids {
		u := users[id]
		if len(u.apps) < 2 {
			// The paper excludes users that commented on a single app.
			continue
		}
		counts := make([]int, 0, len(u.perCat))
		for _, v := range u.perCat {
			counts = append(counts, v)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		cum := 0
		for k := 0; k < maxK; k++ {
			if k < len(counts) {
				cum += counts[k]
			}
			sums[k] += float64(cum) / float64(u.total)
		}
		n++
	}
	if n == 0 {
		return sums
	}
	for k := range sums {
		sums[k] = 100 * sums[k] / float64(n)
	}
	return sums
}

// DownloadsPerCategory returns each category's share (percent) of total
// comments, a proxy for the per-category download distribution of
// Figure 5(d), sorted descending.
func DownloadsPerCategory(c *catalog.Catalog, cs []Comment) []float64 {
	counts := make([]float64, len(c.Categories))
	total := 0.0
	for _, cm := range cs {
		counts[c.CategoryOf(cm.App)]++
		total++
	}
	if total == 0 {
		return counts
	}
	for i := range counts {
		counts[i] = 100 * counts[i] / total
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	return counts
}
