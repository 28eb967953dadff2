// Package marketsim evolves a synthetic appstore day by day: new apps
// arrive, developers ship updates, prices drift, and users download apps
// following the paper's APP-CLUSTERING behaviour over the catalog's real
// category structure. It substitutes for the live appstores the paper
// crawled; its daily snapshots are the "measured data" every experiment
// consumes.
//
// Two download streams run side by side, matching §6's observations:
//
//   - Free apps are downloaded by clustering-driven users (temporal
//     category affinity, fetch-at-most-once), yielding the truncated
//     Zipf curves of Figure 3.
//   - Paid apps are downloaded by a separate, more selective process —
//     price-discounted Zipf with fetch-at-most-once and no clustering —
//     yielding the pure power law of Figure 11(b) and the negative
//     price-popularity correlation of Figure 12.
//
// Day-over-day the catalog barely changes relative to its size (the same
// observation Potharaju et al. make about production stores), so the
// market additionally maintains an observation-only dirty set: per-app
// row versions that let an export share unchanged chunks between
// consecutive days (see partition.go). The dirty tracking never feeds back
// into the simulation — output for a fixed seed is byte-identical with
// tracking observed or ignored.
//
// The random stream is the contract. A seed names one market: the market
// generator (rng.New(seed).Split("market")) draws every app's appeal, then
// every user's download budget, then one Fisher-Yates shuffle of the
// free-stream schedule (a user id per scheduled download), and every
// experiment table and crawl database on record was produced from that
// order. How the result is built and held may change; which draw lands
// where may not (TestScheduleSizedExactly's hash and rng's golden vectors
// hold it). So the first market of a seed shuffles a transient []int32 with
// rng.ShuffleInt32 — Shuffle's draws, inlined and drawn a block ahead — and
// keeps the result bit-packed at ⌈log2 Users⌉ bits per event (packedseq.go),
// and New runs catalog.Generate, which draws from its own rng.New(seed)
// stream and needs nothing of the market's, on a second goroutine joined
// before the first line that reads the catalog.
//
// Everything drawn before that join is the seed's genesis (genesis.go):
// immutable once built, and read in place by every further market of the
// same seed and population in the process — the repository runs a market as
// N identical copies, and the schedule is the largest thing each holds. The
// rest of the simulation has one copy per key too (day.go): downloads are
// observation-only, so same-key markets on the same day hold the same
// simulation state and differ only in their counts and row versions. The
// simulation is stepped in place by the first market to step past the
// frontier day, and each step leaves the day behind as a view; the day-0
// view is kept by a memo keyed by the seed and the whole Config until a
// market first steps. The others adopt the views and apply each day's log,
// one row per change and one app per download, to their own counts. So
// markets that step together hold one simulation between them, whether they
// never roll or roll every day, and their exports read its rows rather than
// copies.
package marketsim

import (
	"fmt"
	"math"
	"slices"

	"planetapps/internal/catalog"
	"planetapps/internal/dist"
	"planetapps/internal/rng"
	"planetapps/internal/snapshot"
)

// Config controls a market simulation beyond the catalog profile.
type Config struct {
	// Profile is the store population profile.
	Profile catalog.Profile
	// Days is the measurement period length.
	Days int
	// WarmupDays simulates download history before the recorded period, so
	// day 0 reflects a mature store (the paper's stores carried years of
	// accumulated downloads on the first crawl day). The per-user download
	// budget DownloadsPerUser is spread over WarmupDays+Days.
	WarmupDays int
	// DisableSeries skips the per-day snapshot.Series accumulation — an
	// O(apps) copy per Step that only analysis consumers need. Serving
	// deployments (appstored) that never read the series should set it.
	// The simulation itself is unaffected: downloads, catalog state, and
	// RNG consumption are identical either way.
	DisableSeries bool
}

// DefaultConfig returns the default period for the profile.
func DefaultConfig(p catalog.Profile) Config {
	return Config{
		Profile:    p,
		Days:       60,
		WarmupDays: 60,
	}
}

// The market's calibration, one value each.
const (
	// paidDownloadShare is the paid stream's volume as a fraction of the
	// free stream's (Table 1: SlideMe paid sees ~2.4% of free volume).
	// Only meaningful when the profile has paid apps.
	paidDownloadShare = 0.024
	// priceElasticity shapes the paid-app price penalty: effective appeal
	// is divided by (1+price)^priceElasticity.
	priceElasticity = 0.8
	// priceChangeP is the per-app per-day probability of a price change.
	priceChangeP = 0.002
	// paidSelectivity raises paid-app appeal to this power before
	// sampling, concentrating paid downloads on the best apps: the steeper
	// pure power law of Figure 11(b) (users "are more selective when
	// paying for apps").
	paidSelectivity = 2.0
	// shovelwareDamping divides an app's appeal by its developer's
	// portfolio size raised to this power. It models the paper's Figure 14
	// finding that income does not grow with portfolio size: accounts that
	// mass-produce apps (the 1,402-app e-book publisher) ship individually
	// unpopular ones.
	shovelwareDamping = 1.0
)

// Market is a running simulation. Create with New, advance with Step or
// Run.
//
// A market holds a view of its day (day.go), never the simulation: the
// catalog rows and header, the name tables and the day's log, which every
// same-key market on that day reads. What a market observes of it is its
// own: the download counts (the simulated ones and those it ingested), the
// row versions and dirty days derived from them, its export partitioner, its
// series and its catalog header, 16 B an app beside a few headers.
type Market struct {
	cfg Config
	// proto is the dayZeroMemo entry this market was handed out of, until its
	// first Step retires it.
	proto *memoEntry[Market]
	v     *dayView
	// cat is the market's own header over its day's rows, which Step moves
	// from day to day; Catalog hands out copies, never cat itself.
	cat *catalog.Catalog

	// Per-app observations: cumulative downloads, and the observation-only
	// dirty tracking (see package comment). rowVer bumps at most once per day
	// on an app's first serving-visible change (row fields or download
	// count); dirtyDay is the day it last bumped. Until the first Step or
	// ApplyDownloadDelta they are the day-0 market's arrays (borrowed).
	downloads []int64
	rowVer    []uint32
	dirtyDay  []int32
	borrowed  bool

	// whole is the whole-catalog partitioner Export cuts with (the zero
	// Partitioner owns every app); it holds the previous export.
	whole  Partitioner
	series *snapshot.Series
}

// sim is a key's simulation state: everything a simulated day reads or
// writes. It never reads a download count, so markets that ingested
// different writes step it alike.
type sim struct {
	// cfg is the Config of the market that built the state; same-key
	// Configs simulate alike (dayZeroKey).
	cfg Config
	cat *catalog.Catalog
	r   *rng.RNG
	day int

	appeal []float64
	// catBias reshapes within-category concentration: category tables use
	// appeal^catBias, so the within-category rank distribution follows the
	// profile's ZipfCluster exponent rather than ZipfGlobal. This is what
	// gives measured curves their two-scale (global vs cluster) structure.
	catBias float64

	// Hot per-app side arrays. updatesAndPrices walks every app every day;
	// reading 8-byte entries sequentially instead of striding through
	// 64-byte catalog rows keeps that walk in cache. Both mirror fields
	// that are immutable after an app is created.
	updateRate []float64
	isPaid     []bool

	// Free-stream sampling tables. Appeal weights are immutable after
	// creation and arrivals get strictly increasing IDs, so the free and
	// per-category tables are append-only: extending them reproduces the
	// exact float accumulation order of a from-scratch rebuild.
	freeCum  []float64
	freeApps []catalog.AppID
	catCum   [][]float64
	catApps  [][]catalog.AppID

	// Paid-stream table. Paid weights do change (price drift, portfolio
	// growth), so the cumulative sums are re-accumulated from the lowest
	// dirty index each day — bit-identical to a full rebuild because the
	// prefix before that index is the same fold of the same weights.
	paidCum       []float64
	paidApps      []catalog.AppID
	paidW         []float64 // cached per-entry weight
	paidIdx       []int32   // app index -> paid table index, -1 if free
	paidDirty     []int32   // paid table indexes needing weight recompute
	paidPortfolio map[catalog.DevID]int
	devPaid       map[catalog.DevID][]int32 // dev -> paid table indexes
	tableN        int                       // apps incorporated into the tables so far

	// Draw-acceleration indexes over the append-only sampling tables
	// (cumindex.go). Observation-only for the RNG stream and the draw
	// results: sampleCum validates a hint before using it.
	freeCumIdx cumIndex
	catCumIdx  []cumIndex

	// catNames and devNames are the name tables every export shares. Entries
	// below a table's length are never rewritten, so appending (even in
	// place) cannot be observed by a holder of an older, shorter header.
	catNames []string
	devNames []string

	// Free users are dense (ids 0..Users-1), so a flat slice replaces the
	// map: 32 B a user from New on, whether they ever download or not,
	// holding the user's first few downloads. The rest, theirs and the paid
	// stream's users', is in hist (histories.go), committed as it fills, so
	// a state that has run d days holds d days of history and a step
	// allocates a block now and then.
	freeUsers  []userState
	freeBudget []int32
	hist       histories
	usersPaid  map[int32]*userState
	paidSlab   []userState

	dailyPaid  float64
	paidVolume bool
	// schedule is the shuffled sequence of free-stream download events
	// (one user id per event); each user appears exactly their per-user
	// download budget times, so user behaviour matches the exact-d users
	// of the analytic models. It is the largest thing a market holds — 82
	// events per user at the bench profile, of which a 4096-day period
	// consumes 1/4096 per Step — so it is kept at ⌈log2 Users⌉ bits per
	// event (17 for 100k users, where an int32 per event was four fifths
	// of a serving store's live heap) and read in place. Its order is part
	// of the seed's contract (package comment): streaming it from a keyed
	// permutation would be smaller still and would re-roll every recorded
	// experiment and crawl. It and freeBudget belong to the seed's genesis
	// and are shared, read-only, by every simulation of the genesis key in
	// the process, as its appeal is until the first arrival. nextEvent
	// tracks the consumption; totalPeriods is Days+WarmupDays.
	schedule     packedSeq
	nextEvent    int
	totalPeriods int

	// log is what the step that produced this state changed.
	log dayLog
}

// dayLog is what one simulated day changed that a market observes: the
// rows whose catalog entry changed (arrivals, version updates, price moves)
// and one app per simulated download. A market applies it to its own
// counts and row versions (Market.observe). vals holds each changed row's
// value at the end of the day, kept only for a market that may adopt the
// day from an earlier one (dayView.behind).
type dayLog struct {
	rows  []int32
	draws []catalog.AppID
	vals  []catalog.App
}

// New returns a market over its seed's generated catalog at day 0.
// Deterministic in (cfg, seed), whatever GOMAXPROCS is and whatever was built
// before it. The day-0 market of a key is built once and read in place by
// every market New hands out for that key until one of them rolls
// (dayZeroMemo): each gets its own struct, catalog header and series, and
// the day-0 counts and row versions until its first Step or
// ApplyDownloadDelta copies them.
func New(cfg Config, seed uint64) (*Market, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var err error
	proto, e := dayZeroMemo.get(dayZeroKey{genesisKeyOf(seed, cfg.Profile), cfg}, func() *Market {
		var p *Market
		p, err = build(cfg, seed)
		return p
	})
	if proto == nil {
		return nil, err
	}
	if m := proto.view(cfg, e); m != nil {
		return m, nil
	}
	// A market handed the same day 0 before us has stepped past it alone,
	// writing it: this one builds a day 0 of its own.
	if proto, err = build(cfg, seed); err != nil {
		return nil, err
	}
	return proto.view(cfg, nil), nil
}

// build builds the day-0 market of (cfg, seed). The catalog is generated
// from its own rng.New(seed) stream on a second goroutine while this one
// takes the seed's genesis — drawn here, or already drawn for an earlier
// market of the same genesis key (genesis.go) — and neither reads what the
// other writes until the join.
func build(cfg Config, seed uint64) (*Market, error) {
	c := &chain{}
	s := &c.sim
	s.cfg = cfg
	s.usersPaid = map[int32]*userState{}
	s.paidPortfolio = map[catalog.DevID]int{}
	s.devPaid = map[catalog.DevID][]int32{}
	// Nothing between the go statement and the receive returns, so the
	// goroutine is always waited for.
	var catErr error
	generated := make(chan struct{})
	go func() {
		defer close(generated)
		s.cat, catErr = catalog.Generate(cfg.Profile, seed)
	}()
	// The market continues the stream where genesis left it. appeal grows by
	// append when apps arrive, so it is handed out with no spare capacity:
	// the first arrival moves this state onto an array of its own.
	g := genesisFor(seed, cfg.Profile)
	r := g.r
	s.r = &r
	s.appeal = g.appeal[:len(g.appeal):len(g.appeal)]
	s.freeBudget = g.freeBudget
	s.schedule = g.schedule
	s.freeUsers = make([]userState, cfg.Profile.Users)
	s.totalPeriods = cfg.Days + cfg.WarmupDays

	<-generated
	if catErr != nil {
		return nil, catErr
	}
	s.initTracking()
	s.catBias = 1
	if cfg.Profile.ZipfGlobal > 0 && cfg.Profile.ZipfCluster > 0 {
		s.catBias = cfg.Profile.ZipfCluster / cfg.Profile.ZipfGlobal
	}
	// Warm up: accumulate pre-period history so the day-0 snapshot looks
	// like a mature store, then record day 0. simulateDownloads consumes
	// the schedule up through the current day, which at this point covers
	// all warmup days plus day 0 — so first-day curves are never all-zero.
	s.syncTables()
	s.paidVolume = len(s.paidApps) > 0
	if s.paidVolume {
		s.dailyPaid = float64(s.schedule.len()) / float64(s.totalPeriods) * paidDownloadShare
	}
	s.simulateDownloads()

	n := s.cat.NumApps()
	m := &Market{
		cfg:       cfg,
		v:         c.view(),
		cat:       &catalog.Catalog{},
		downloads: make([]int64, n),
		rowVer:    make([]uint32, n),
		dirtyDay:  make([]int32, n),
		series:    &snapshot.Series{Store: cfg.Profile.Name},
	}
	*m.cat = m.v.cat
	for i := range m.dirtyDay {
		m.dirtyDay[i] = -1
	}
	m.observe()
	// Nobody adopts day 0: its log, the whole warmup's draws, goes now.
	s.log, m.v.log = dayLog{}, dayLog{}
	if !cfg.DisableSeries {
		m.record()
	}
	return m, nil
}

// view returns a market on the day-0 market p, the value of memo entry me
// (nil for a build of its own): its own struct, catalog header and series
// header — what a caller may hold a pointer to — reading p's day view and,
// clipped, p's counts and row versions, which it copies before its first
// write. It returns nil if a market handed p's day earlier has stepped past
// it alone (dayView.take).
func (p *Market) view(cfg Config, me *memoEntry[Market]) *Market {
	m := &Market{
		cfg:       cfg,
		proto:     me,
		v:         p.v,
		cat:       &catalog.Catalog{},
		downloads: slices.Clip(p.downloads),
		rowVer:    slices.Clip(p.rowVer),
		dirtyDay:  slices.Clip(p.dirtyDay),
		borrowed:  true,
	}
	if !p.v.take(m.cat) {
		return nil
	}
	series := *p.series
	series.Days = slices.Clip(series.Days)
	m.series = &series
	return m
}

// validate refuses a configuration New cannot build a market over, naming
// the field. The catalog's own fields are catalog.Generate's to refuse.
func (cfg *Config) validate() error {
	if cfg.Days < 2 {
		return fmt.Errorf("marketsim: Days = %d, need >= 2", cfg.Days)
	}
	if cfg.WarmupDays < 0 {
		return fmt.Errorf("marketsim: WarmupDays = %d, need >= 0", cfg.WarmupDays)
	}
	// User ids and per-user budgets are int32; the schedule is indexed by int.
	users, d := cfg.Profile.Users, cfg.Profile.DownloadsPerUser
	if users < 0 || users > math.MaxInt32 {
		return fmt.Errorf("marketsim: Profile.Users = %d, need 0 .. 2^31-1", users)
	}
	if math.IsNaN(d) || d < 0 || d >= math.MaxInt32 {
		return fmt.Errorf("marketsim: Profile.DownloadsPerUser = %v, need a finite value in [0, 2^31-1)", d)
	}
	if math.Ceil(d)*float64(users) >= math.MaxInt { // only where int is 32 bits
		return fmt.Errorf("marketsim: Profile.Users × DownloadsPerUser = %d × %v events overflow the schedule's index", users, d)
	}
	return nil
}

// initTracking sizes the side arrays and name tables for the generated
// catalog. Draws no randomness.
func (s *sim) initTracking() {
	n := s.cat.NumApps()
	s.updateRate = make([]float64, n)
	s.isPaid = make([]bool, n)
	s.paidIdx = make([]int32, n)
	for i := 0; i < n; i++ {
		a := &s.cat.Apps[i]
		s.updateRate[i] = a.UpdateRate
		s.isPaid[i] = a.Pricing == catalog.Paid
		s.paidIdx[i] = -1
	}
	s.catNames = make([]string, len(s.cat.Categories))
	for i := range s.cat.Categories {
		s.catNames[i] = s.cat.Categories[i].Name
	}
	s.devNames = make([]string, 0, devNamesRoom(len(s.cat.Developers)))
	s.syncDevNames()
}

// devNamesRoom is the capacity a developer name table of n names is given:
// room for a period's new accounts.
func devNamesRoom(n int) int { return n + n/8 + 16 }

// syncDevNames extends the developer name table to cover arrivals.
func (s *sim) syncDevNames() {
	for i := len(s.devNames); i < len(s.cat.Developers); i++ {
		s.devNames = append(s.devNames, s.cat.Developers[i].Name)
	}
}

// touchRow registers a serving-visible change to app i today (its catalog
// row or its download count): its row version bumps at most once per day.
func (m *Market) touchRow(i int) {
	if d := int32(m.v.day); m.dirtyDay[i] != d {
		m.dirtyDay[i] = d
		m.rowVer[i]++
	}
}

// growTracking extends the per-app side arrays to cover a newly added app
// (id == len-1 after the catalog append).
func (s *sim) growTracking(a *catalog.App) {
	s.updateRate = push(s.updateRate, a.UpdateRate)
	s.isPaid = push(s.isPaid, a.Pricing == catalog.Paid)
	s.paidIdx = push(s.paidIdx, -1)
}

// drawAppeal draws one appeal weight for a store that opened with apps apps.
// Pareto-tailed appeal makes the sorted weights follow a power law with
// exponent 1/alpha = zipfGlobal, so the simulated rank curves carry the
// profile's trunk slope.
func drawAppeal(r *rng.RNG, apps int, zipfGlobal float64) float64 {
	p := dist.Pareto{Xm: 1, Alpha: 1 / zipfGlobal}
	w := p.Sample(r)
	// Cap the heavy tail near the expected maximum order statistic
	// (~Apps^zr). Without the cap a single freak draw can absorb a large,
	// realization-dependent share of the store, destabilizing the head of
	// every popularity curve; with it, the top couple of apps sit near the
	// cap, reproducing the near-tied top ranks real stores exhibit.
	if cap := math.Pow(float64(apps), zipfGlobal) / 2; w > cap {
		w = cap
	}
	return w
}

// Catalog returns the market's current day's catalog, read-only to callers:
// a header of the caller's own over the day's rows and member lists, which
// every same-key market on the day reads. It stays that day's: a later Step
// neither writes what it points at nor moves it to the next day, so a caller
// that wants a later day calls Catalog again. Taking it lends the day out,
// so the step past the day copies its rows and member lists before writing.
// It takes the key's lock, and may wait out a same-key market's step; it
// must not run concurrently with this market's Step.
func (m *Market) Catalog() *catalog.Catalog {
	cat := m.v.header()
	return &cat
}

// Day returns the current day index (number of completed days - 1).
func (m *Market) Day() int { return m.v.day }

// Series returns the snapshot series accumulated so far (empty when the
// market runs with DisableSeries).
func (m *Market) Series() *snapshot.Series { return m.series }

// Downloads returns the live per-app cumulative download counts (shared
// slice; callers must not modify). They are the market's own from its
// first Step or ApplyDownloadDelta on; until then they are the day-0 vector
// every same-key market built before then reads.
func (m *Market) Downloads() []int64 { return m.downloads }

// ApplyDownloadDelta merges externally ingested download counts (the
// store's WAL day-delta) into the market's cumulative counts and the dirty
// tracking that drives export chunk sharing and content-version ETags.
// Unknown app IDs (a client writing against a stale catalog view) are
// skipped and reported.
//
// Downloads are observation-only for the simulation — they are never
// sampling inputs — so merging a delta perturbs no RNG stream: the
// simulated trajectory with writes is the simulated trajectory without
// them, plus exactly the ingested counts. The merge writes only the
// market's own counts and row versions, never the simulation state it
// shares with same-key markets. Callers pass apps in a deterministic order
// for reproducible builds; the merged state itself is order-independent
// (commutative adds).
func (m *Market) ApplyDownloadDelta(apps []int32, count func(int32) int64) (applied, skipped int) {
	m.ownCounts(0)
	for _, id := range apps {
		i := int(id)
		if i < 0 || i >= len(m.downloads) {
			skipped++
			continue
		}
		n := count(id)
		if n <= 0 {
			continue
		}
		m.downloads[i] += n
		m.touchRow(i)
		applied++
	}
	return applied, skipped
}

// Run advances the market to the configured number of days and returns the
// snapshot series.
func (m *Market) Run() (*snapshot.Series, error) {
	for m.v.day < m.cfg.Days-1 {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.series, nil
}

// Step simulates one day: arrivals, updates, price drift, downloads, and a
// snapshot. The simulation runs once per day for all same-key markets on
// that day: the first to step simulates it, and the rest adopt the view it
// left (dayView.advance). Either way the market then applies the day's log
// to its own counts.
func (m *Market) Step() error {
	if m.v.day >= m.cfg.Days-1 {
		return fmt.Errorf("marketsim: period of %d days already complete", m.cfg.Days)
	}
	if m.proto != nil {
		// Construction is over once one of a key's markets rolls: a later New
		// of the key builds again.
		dayZeroMemo.retire(m.proto)
		m.proto = nil
	}
	m.v = m.v.advance(m.cat)
	m.observe()
	if !m.cfg.DisableSeries {
		m.record()
	}
	return nil
}

// observe brings the market's own state to its view's day: the counts and
// row versions grown over the day's arrivals, and the day's log applied by
// the touchRow rule.
func (m *Market) observe() {
	n := m.cat.NumApps()
	m.ownCounts(n - len(m.downloads))
	if n > cap(m.downloads) {
		// Room for 1/64 more apps at a time: a few copies a period, never
		// the quarter more append would hold.
		room := n + n/64
		m.downloads = append(make([]int64, 0, room), m.downloads...)
		m.rowVer = append(make([]uint32, 0, room), m.rowVer...)
		m.dirtyDay = append(make([]int32, 0, room), m.dirtyDay...)
	}
	for len(m.downloads) < n {
		m.downloads = append(m.downloads, 0)
		m.rowVer = append(m.rowVer, 0)
		m.dirtyDay = append(m.dirtyDay, -1)
	}
	log := &m.v.log
	for _, i := range log.rows {
		m.touchRow(int(i))
	}
	for _, app := range log.draws {
		m.downloads[int(app)]++
		m.touchRow(int(app))
	}
}

// ownCounts gives a market still reading the day-0 counts and row versions
// copies of its own, with room for arrivals more apps.
func (m *Market) ownCounts(arrivals int) {
	if !m.borrowed {
		return
	}
	m.borrowed = false
	m.downloads = withRoom(m.downloads, arrivals)
	m.rowVer = withRoom(m.rowVer, arrivals)
	m.dirtyDay = withRoom(m.dirtyDay, arrivals)
}

// withRoom copies s into an array with room for n more elements.
func withRoom[S ~[]E, E any](s S, n int) S { return append(make(S, 0, len(s)+n), s...) }

// push appends v to s. A full s is first copied into an array with room
// for 1/64 more than its new length, as observe grows the counts: the
// simulation's per-app arrays grow with every day's arrivals for as long as
// it runs, and append's growth would leave them a quarter larger than they
// are.
func push[S ~[]E, E any](s S, v E) S {
	if n := len(s) + 1; n > cap(s) {
		s = append(make(S, 0, n+n/64), s...)
	}
	return append(s, v)
}

// arrivals publishes the day's n new apps. Most arrivals come from new
// developer accounts joining the store (keeping the single-app developer
// share high, per Figure 16a); the rest extend existing portfolios.
func (s *sim) arrivals(n int) {
	for k := 0; k < n; k++ {
		dev := catalog.DevID(len(s.cat.Developers)) // a brand-new account
		if s.r.Bool(0.3) {
			dev = catalog.DevID(s.r.Intn(len(s.cat.Developers)))
		}
		a := catalog.App{
			Dev:        dev,
			Category:   catalog.CategoryID(s.r.Intn(len(s.cat.Categories))),
			SizeMB:     3.5,
			AddedDay:   s.day,
			UpdateRate: 0.003,
			Quality:    s.r.Float64(),
		}
		if a.Quality == 0 {
			a.Quality = 1e-6
		}
		if s.r.Bool(s.cfg.Profile.PaidFraction) {
			a.Pricing = catalog.Paid
			price := dist.LogNormal{Mu: s.cfg.Profile.PriceLogMu, Sigma: s.cfg.Profile.PriceLogSigma}.Sample(s.r)
			if price < 0.5 {
				price = 0.5
			}
			if price > 50 {
				price = 50
			}
			a.Price = float64(int(price*100+0.5)) / 100
		} else {
			a.HasAds = s.r.Bool(s.cfg.Profile.AdFraction)
		}
		id := s.cat.AddApp(a)
		// New arrivals start with damped appeal: most newcomers are
		// unpopular; breakout hits are possible but rare.
		s.appeal = push(s.appeal, drawAppeal(s.r, s.cfg.Profile.Apps, s.cfg.Profile.ZipfGlobal)*0.25)
		s.growTracking(&s.cat.Apps[int(id)])
		s.log.rows = append(s.log.rows, int32(id))
	}
}

// updatesAndPrices ships version updates and drifts paid prices.
func (s *sim) updatesAndPrices() {
	for i := range s.updateRate {
		if s.r.Bool(s.updateRate[i]) {
			s.cat.Apps[i].Versions++
			s.log.rows = append(s.log.rows, int32(i))
		}
		if s.isPaid[i] && s.r.Bool(priceChangeP) {
			a := &s.cat.Apps[i]
			factor := 0.8 + 0.4*s.r.Float64()
			p := a.Price * factor
			if p < 0.5 {
				p = 0.5
			}
			if p > 50 {
				p = 50
			}
			a.Price = float64(int(p*100+0.5)) / 100
			s.log.rows = append(s.log.rows, int32(i))
			if j := s.paidIdx[i]; j >= 0 {
				s.paidDirty = append(s.paidDirty, j)
			}
			// paidIdx < 0 means the app arrived today and is not yet in
			// the paid table; syncTables computes its weight from the
			// already-drifted price, exactly as a full rebuild would.
		}
	}
}

// paidWeight computes the effective sampling weight of paid-table entry
// j from current state (price, developer portfolio). Pure: same inputs,
// bit-identical output — the invariant the incremental table relies on.
func (s *sim) paidWeight(j int32) float64 {
	i := int(s.paidApps[j])
	a := &s.cat.Apps[i]
	w := s.appeal[i]
	// Paying users are more selective (steeper concentration) and
	// price-sensitive.
	w = math.Pow(w, paidSelectivity)
	w /= math.Pow(1+a.Price, priceElasticity)
	if n := s.paidPortfolio[a.Dev]; n > 1 {
		w /= math.Pow(float64(n), shovelwareDamping)
	}
	return w
}

// syncTables brings the sampling tables up to date with the catalog:
// appends arrivals to the append-only free/category tables and patches
// the paid table from its lowest dirty index. Replaces the former full
// per-day rebuild with work proportional to the day's changes while
// producing bit-identical tables (see the field comments on Market).
func (s *sim) syncTables() {
	n := s.cat.NumApps()
	if s.tableN == 0 {
		s.sizeTables()
	}
	// Paid entries from here up are this call's, each enqueued for its
	// weight as it is added.
	added := int32(len(s.paidApps))
	for i := s.tableN; i < n; i++ {
		a := &s.cat.Apps[i]
		w := s.appeal[i]
		if a.Pricing == catalog.Paid {
			s.paidPortfolio[a.Dev]++
			j := int32(len(s.paidApps))
			// The portfolio grew: every paid app this developer already had
			// in the table is damped harder now. This call's own entries are
			// on the list once each already; weights are computed after the
			// loop, from the final portfolios, and listing them again per
			// sibling would weigh an opening catalog's paid apps five times
			// over.
			for _, k := range s.devPaid[a.Dev] {
				if k < added {
					s.paidDirty = append(s.paidDirty, k)
				}
			}
			s.devPaid[a.Dev] = append(s.devPaid[a.Dev], j)
			s.paidApps = push(s.paidApps, a.ID)
			s.paidW = push(s.paidW, 0)
			s.paidCum = push(s.paidCum, 0)
			s.paidIdx[i] = j
			s.paidDirty = append(s.paidDirty, j)
			continue
		}
		var freeSum float64
		if k := len(s.freeCum); k > 0 {
			freeSum = s.freeCum[k-1]
		}
		s.freeCum = push(s.freeCum, freeSum+w)
		s.freeApps = push(s.freeApps, a.ID)
		c := int(a.Category)
		cw := w
		if s.catBias != 1 {
			cw = math.Pow(w, s.catBias)
		}
		var catSum float64
		if k := len(s.catCum[c]); k > 0 {
			catSum = s.catCum[c][k-1]
		}
		s.catCum[c] = push(s.catCum[c], catSum+cw)
		s.catApps[c] = push(s.catApps[c], a.ID)
	}
	s.tableN = n
	// Refresh the stale draw-acceleration hints. Amortized: fresh()
	// tolerates a bounded amount of appended growth, so most days skip
	// the sweeps entirely.
	if !s.freeCumIdx.fresh(s.freeCum) {
		s.freeCumIdx.rebuild(s.freeCum)
	}
	for c := range s.catCumIdx {
		if !s.catCumIdx[c].fresh(s.catCum[c]) {
			s.catCumIdx[c].rebuild(s.catCum[c])
		}
	}
	if len(s.paidDirty) == 0 {
		return
	}
	lo := s.paidDirty[0]
	for _, j := range s.paidDirty[1:] {
		if j < lo {
			lo = j
		}
	}
	for _, j := range s.paidDirty {
		s.paidW[j] = s.paidWeight(j)
	}
	// Re-accumulate the cumulative sums from the lowest patched entry.
	// The stored prefix below lo is the same left-to-right fold a full
	// rebuild would produce, so continuing from it is bit-identical.
	var sum float64
	if lo > 0 {
		sum = s.paidCum[lo-1]
	}
	for j := int(lo); j < len(s.paidW); j++ {
		sum += s.paidW[j]
		s.paidCum[j] = sum
	}
	s.paidDirty = s.paidDirty[:0]
}

// sizeTables gives the sampling tables, before the first syncTables fills
// them, exactly the room the opening catalog takes: one pass counts the
// free apps of every category and the paid apps, the free and paid tables
// are made at those sizes and the per-category ones cut, cap == len once
// filled, out of one array per family. Only where the entries are stored
// changes; syncTables still accumulates them left to right in ID order.
// An arrival then moves the table it extends onto an array of its own,
// with append's usual room to grow.
func (s *sim) sizeTables() {
	perCat := make([]int, len(s.cat.Categories))
	paid := 0
	for i := range s.cat.Apps {
		if a := &s.cat.Apps[i]; a.Pricing == catalog.Paid {
			paid++
		} else {
			perCat[a.Category]++
		}
	}
	free := len(s.cat.Apps) - paid
	s.freeCum = make([]float64, 0, free)
	s.freeApps = make([]catalog.AppID, 0, free)
	s.paidApps = make([]catalog.AppID, 0, paid)
	s.paidW = make([]float64, 0, paid)
	s.paidCum = make([]float64, 0, paid)
	s.paidDirty = make([]int32, 0, paid)
	s.catCum = make([][]float64, len(perCat))
	s.catApps = make([][]catalog.AppID, len(perCat))
	s.catCumIdx = make([]cumIndex, len(perCat))
	cum := make([]float64, free)
	apps := make([]catalog.AppID, free)
	off := 0
	for c, k := range perCat {
		s.catCum[c] = cum[off : off : off+k]
		s.catApps[c] = apps[off : off : off+k]
		off += k
	}
}

const maxRetries = 48

// drawFree performs one clustering-model download for a free-stream user.
func (s *sim) drawFree(u *userState) (catalog.AppID, bool) {
	clustered := u.count() > 0 && s.r.Bool(s.cfg.Profile.ClusterP)
	if clustered {
		for try := 0; try < maxRetries; try++ {
			prev := s.hist.at(u, s.r.Intn(u.count()))
			c := int(s.cat.CategoryOf(prev))
			idx := sampleCum(s.r, s.catCum[c], &s.catCumIdx[c])
			if idx < 0 {
				break
			}
			app := s.catApps[c][idx]
			if !s.hist.has(u, app) {
				return app, true
			}
		}
		// Fall through to a global draw when the user's clusters are
		// saturated.
	}
	for try := 0; try < maxRetries; try++ {
		idx := sampleCum(s.r, s.freeCum, &s.freeCumIdx)
		if idx < 0 {
			return 0, false
		}
		app := s.freeApps[idx]
		if !s.hist.has(u, app) {
			return app, true
		}
	}
	return 0, false
}

// drawPaid performs one selective paid-stream download.
func (s *sim) drawPaid(u *userState) (catalog.AppID, bool) {
	for try := 0; try < maxRetries; try++ {
		idx := sampleCum(s.r, s.paidCum, nil)
		if idx < 0 {
			return 0, false
		}
		app := s.paidApps[idx]
		if !s.hist.has(u, app) {
			return app, true
		}
	}
	return 0, false
}

// paidUser returns (creating on first use) the paid-stream state for a
// user id. States are slab-allocated: paid users are few but arrive
// steadily, and one allocation per slab beats one per user.
func (s *sim) paidUser(uid int32) *userState {
	u := s.usersPaid[uid]
	if u == nil {
		if len(s.paidSlab) == cap(s.paidSlab) {
			s.paidSlab = make([]userState, 0, 128)
		}
		s.paidSlab = append(s.paidSlab, userState{})
		u = &s.paidSlab[len(s.paidSlab)-1]
		s.usersPaid[uid] = u
	}
	return u
}

// simulateDownloads generates the day's download events by consuming the
// next slice of the shuffled per-user schedule.
func (s *sim) simulateDownloads() {
	// Days consumed so far (including this one) determine the cut point so
	// rounding never drops events: the final day drains the schedule.
	consumedDays := s.day + s.cfg.WarmupDays + 1
	hi := s.schedule.len() * consumedDays / s.totalPeriods
	if hi > s.schedule.len() {
		hi = s.schedule.len()
	}
	for ; s.nextEvent < hi; s.nextEvent++ {
		uid := s.schedule.at(s.nextEvent)
		u := &s.freeUsers[uid]
		if app, ok := s.drawFree(u); ok {
			s.hist.record(u, app, s.freeBudget[uid])
			s.log.draws = append(s.log.draws, app)
		}
	}
	if !s.paidVolume {
		return
	}
	// The first call covers all warmup days plus day 0; scale the paid
	// volume by the number of days this call spans.
	daysCovered := 1
	if s.day == 0 {
		daysCovered = s.cfg.WarmupDays + 1
	}
	nPaid := s.r.Poisson(s.dailyPaid * float64(daysCovered))
	for k := 0; k < nPaid; k++ {
		uid := int32(s.r.Intn(s.cfg.Profile.Users))
		u := s.paidUser(uid)
		if app, ok := s.drawPaid(u); ok {
			s.hist.record(u, app, 0)
			s.log.draws = append(s.log.draws, app)
		}
	}
}

// record appends today's snapshot to the series.
func (m *Market) record() {
	n := m.cat.NumApps()
	d := &snapshot.Day{
		Index:               m.v.day,
		CumulativeDownloads: append([]int64(nil), m.downloads[:n]...),
		Versions:            make([]int, n),
		Price:               make([]float64, n),
	}
	for i := 0; i < n; i++ {
		d.Versions[i] = m.cat.Apps[i].Versions
		d.Price[i] = m.cat.Apps[i].Price
	}
	// The series grows strictly by day; record is called exactly once per
	// day, so Append cannot fail by construction. Panic on violation.
	if err := m.series.Append(d); err != nil {
		panic(err)
	}
}
