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
// row versions and per-chunk version stamps that let Export share
// unchanged state between consecutive days (see export.go). The dirty
// tracking never feeds back into the simulation — output for a fixed
// seed is byte-identical with tracking observed or ignored.
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
// N identical copies, and the schedule is the largest thing each holds.
package marketsim

import (
	"fmt"
	"math"

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
	// FullExport disables cross-export chunk sharing: every Export is a
	// fully materialized deep copy, as before the incremental day-roll.
	// Used by determinism tests and as an escape hatch; the default
	// (false) shares unchanged chunks between consecutive exports.
	FullExport bool
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
type Market struct {
	cfg Config
	cat *catalog.Catalog
	r   *rng.RNG

	day       int
	downloads []int64 // per-app cumulative
	total     int64   // sum of downloads, maintained incrementally
	appeal    []float64
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

	// Observation-only dirty tracking (see package comment). rowVer bumps
	// at most once per day on an app's first serving-visible change (row
	// fields or download count); chunkVer is the chunk-granular
	// counterpart. rowChunkDay / dlChunkDay stamp which chunks had
	// catalog-row / download-vector writes, steering Export's chunk
	// sharing.
	rowVer      []uint32
	dirtyDay    []int32
	chunkVer    []uint64
	chunkVerDay []int32
	rowChunkDay []int32
	dlChunkDay  []int32

	// Export sharing state (export.go).
	lastExport    *Export
	lastExportDay int
	catNames      []string
	devNames      []string

	// Free users are dense (ids 0..Users-1), so a flat slice replaces the
	// map: 32 B a user from New on, whether they ever download or not,
	// holding the user's first few downloads. The rest, theirs and the paid
	// stream's users', is in hist (histories.go), committed as it fills, so
	// a market that has run d days holds d days of history and a Step
	// allocates a block now and then.
	freeUsers  []userState
	freeBudget []int32
	hist       histories
	usersPaid  map[int32]*userState
	paidSlab   []userState

	series     *snapshot.Series
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
	// experiment and crawl. It, freeBudget and the opening prefix of appeal
	// belong to the seed's genesis and are shared, read-only, with every
	// same-key market in the process. nextEvent tracks this market's
	// consumption; totalPeriods is Days+WarmupDays.
	schedule     packedSeq
	nextEvent    int
	totalPeriods int
}

// New builds a market over a freshly generated catalog. Deterministic in
// (cfg, seed), whatever GOMAXPROCS is and whatever was built before it: the
// catalog is generated from its own rng.New(seed) stream on a second
// goroutine while this one takes the seed's genesis — drawn here, or
// already drawn for an earlier market of the same key (genesis.go) — and
// neither reads what the other writes until the join.
func New(cfg Config, seed uint64) (*Market, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Market{
		cfg:           cfg,
		usersPaid:     map[int32]*userState{},
		paidPortfolio: map[catalog.DevID]int{},
		devPaid:       map[catalog.DevID][]int32{},
		series:        &snapshot.Series{Store: cfg.Profile.Name},
		lastExportDay: -1,
	}
	// Nothing between the go statement and the receive returns, so the
	// goroutine is always waited for.
	var catErr error
	generated := make(chan struct{})
	go func() {
		defer close(generated)
		m.cat, catErr = catalog.Generate(cfg.Profile, seed)
	}()
	// The market continues the stream where genesis left it. appeal grows by
	// append when apps arrive, so it is handed out with no spare capacity:
	// the first arrival moves this market onto an array of its own.
	g := genesisFor(seed, cfg.Profile)
	r := g.r
	m.r = &r
	m.appeal = g.appeal[:len(g.appeal):len(g.appeal)]
	m.freeBudget = g.freeBudget
	m.schedule = g.schedule
	m.freeUsers = make([]userState, cfg.Profile.Users)
	m.totalPeriods = cfg.Days + cfg.WarmupDays

	<-generated
	if catErr != nil {
		return nil, catErr
	}
	m.downloads = make([]int64, m.cat.NumApps())
	m.initTracking()
	m.catBias = 1
	if cfg.Profile.ZipfGlobal > 0 && cfg.Profile.ZipfCluster > 0 {
		m.catBias = cfg.Profile.ZipfCluster / cfg.Profile.ZipfGlobal
	}
	// Warm up: accumulate pre-period history so the day-0 snapshot looks
	// like a mature store, then record day 0. simulateDownloads consumes
	// the schedule up through the current day, which at this point covers
	// all warmup days plus day 0 — so first-day curves are never all-zero.
	m.syncTables()
	m.paidVolume = len(m.paidApps) > 0
	if m.paidVolume {
		m.dailyPaid = float64(m.schedule.len()) / float64(m.totalPeriods) * paidDownloadShare
	}
	m.simulateDownloads()
	if !m.cfg.DisableSeries {
		m.record()
	}
	return m, nil
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

// initTracking sizes the side arrays and dirty-tracking state for the
// generated catalog. Draws no randomness.
func (m *Market) initTracking() {
	n := m.cat.NumApps()
	m.updateRate = make([]float64, n)
	m.isPaid = make([]bool, n)
	m.paidIdx = make([]int32, n)
	for i := 0; i < n; i++ {
		a := &m.cat.Apps[i]
		m.updateRate[i] = a.UpdateRate
		m.isPaid[i] = a.Pricing == catalog.Paid
		m.paidIdx[i] = -1
	}
	m.rowVer = make([]uint32, n)
	m.dirtyDay = make([]int32, n)
	for i := range m.dirtyDay {
		m.dirtyDay[i] = -1
	}
	nc := numChunks(n)
	m.chunkVer = make([]uint64, nc)
	m.chunkVerDay = make([]int32, nc)
	m.dlChunkDay = make([]int32, nc)
	for c := 0; c < nc; c++ {
		m.chunkVerDay[c] = -1
		m.dlChunkDay[c] = -1
	}
	m.rowChunkDay = make([]int32, numAppChunks(n))
	for c := range m.rowChunkDay {
		m.rowChunkDay[c] = -1
	}
	m.catNames = make([]string, len(m.cat.Categories))
	for i := range m.cat.Categories {
		m.catNames[i] = m.cat.Categories[i].Name
	}
	m.devNames = make([]string, 0, len(m.cat.Developers)+len(m.cat.Developers)/8+16)
	m.syncDevNames()
}

// syncDevNames extends the developer name table to cover arrivals. The
// backing array is shared with prior exports: entries below their length
// are never rewritten, so appending (even in place) cannot be observed by
// a holder of an older, shorter header.
func (m *Market) syncDevNames() []string {
	for i := len(m.devNames); i < len(m.cat.Developers); i++ {
		m.devNames = append(m.devNames, m.cat.Developers[i].Name)
	}
	return m.devNames
}

// touchRow registers a serving-visible change to app i today: its row
// version and its chunk's version each bump at most once per day.
func (m *Market) touchRow(i int) {
	d := int32(m.day)
	if m.dirtyDay[i] != d {
		m.dirtyDay[i] = d
		m.rowVer[i]++
	}
	c := i >> chunkShift
	if m.chunkVerDay[c] != d {
		m.chunkVerDay[c] = d
		m.chunkVer[c]++
	}
}

// markRow records a catalog-row mutation (new app, update, price change).
// Row writes stamp the finer apps-family chunk (see appChunkShift).
func (m *Market) markRow(i int) {
	m.touchRow(i)
	if c := i >> appChunkShift; m.rowChunkDay[c] != int32(m.day) {
		m.rowChunkDay[c] = int32(m.day)
	}
}

// markDL records a download-count mutation.
func (m *Market) markDL(i int) {
	m.touchRow(i)
	if c := i >> chunkShift; m.dlChunkDay[c] != int32(m.day) {
		m.dlChunkDay[c] = int32(m.day)
	}
}

// growTracking extends per-app and per-chunk tracking state to cover a
// newly added app (id == len-1 after the catalog append).
func (m *Market) growTracking(a *catalog.App) {
	m.updateRate = append(m.updateRate, a.UpdateRate)
	m.isPaid = append(m.isPaid, a.Pricing == catalog.Paid)
	m.paidIdx = append(m.paidIdx, -1)
	m.rowVer = append(m.rowVer, 0)
	m.dirtyDay = append(m.dirtyDay, -1)
	for nc := numChunks(m.cat.NumApps()); len(m.chunkVer) < nc; {
		m.chunkVer = append(m.chunkVer, 0)
		m.chunkVerDay = append(m.chunkVerDay, -1)
		m.dlChunkDay = append(m.dlChunkDay, -1)
	}
	for nca := numAppChunks(m.cat.NumApps()); len(m.rowChunkDay) < nca; {
		m.rowChunkDay = append(m.rowChunkDay, -1)
	}
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

// Catalog exposes the market's evolving catalog.
func (m *Market) Catalog() *catalog.Catalog { return m.cat }

// Day returns the current day index (number of completed days - 1).
func (m *Market) Day() int { return m.day }

// Series returns the snapshot series accumulated so far (empty when the
// market runs with DisableSeries).
func (m *Market) Series() *snapshot.Series { return m.series }

// Downloads returns the live per-app cumulative download counts (shared
// slice; callers must not modify).
func (m *Market) Downloads() []int64 { return m.downloads }

// ApplyDownloadDelta merges externally ingested download counts (the
// store's WAL day-delta) into the market's cumulative state: per-app
// counts, the running total, and the dirty tracking that drives export
// chunk sharing and content-version ETags. Unknown app IDs (a client
// writing against a stale catalog view) are skipped and reported.
//
// Downloads are observation-only for the simulation — they are never
// sampling inputs — so merging a delta perturbs no RNG stream: the
// simulated trajectory with writes is the simulated trajectory without
// them, plus exactly the ingested counts. Callers pass apps in a
// deterministic order for reproducible builds; the merged state itself is
// order-independent (commutative adds).
func (m *Market) ApplyDownloadDelta(apps []int32, count func(int32) int64) (applied, skipped int) {
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
		m.total += n
		m.markDL(i)
		applied++
	}
	return applied, skipped
}

// Run advances the market to the configured number of days and returns the
// snapshot series.
func (m *Market) Run() (*snapshot.Series, error) {
	for m.day < m.cfg.Days-1 {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.series, nil
}

// Step simulates one day: arrivals, updates, price drift, downloads, and a
// snapshot.
func (m *Market) Step() error {
	if m.day >= m.cfg.Days-1 {
		return fmt.Errorf("marketsim: period of %d days already complete", m.cfg.Days)
	}
	m.day++
	m.arrivals()
	m.updatesAndPrices()
	m.syncTables()
	m.simulateDownloads()
	if !m.cfg.DisableSeries {
		m.record()
	}
	return nil
}

// arrivals publishes the day's new apps. Most arrivals come from new
// developer accounts joining the store (keeping the single-app developer
// share high, per Figure 16a); the rest extend existing portfolios.
func (m *Market) arrivals() {
	n := m.r.Poisson(m.cfg.Profile.NewAppsPerDay)
	for k := 0; k < n; k++ {
		dev := catalog.DevID(len(m.cat.Developers)) // a brand-new account
		if m.r.Bool(0.3) {
			dev = catalog.DevID(m.r.Intn(len(m.cat.Developers)))
		}
		a := catalog.App{
			Dev:        dev,
			Category:   catalog.CategoryID(m.r.Intn(len(m.cat.Categories))),
			SizeMB:     3.5,
			AddedDay:   m.day,
			UpdateRate: 0.003,
			Quality:    m.r.Float64(),
		}
		if a.Quality == 0 {
			a.Quality = 1e-6
		}
		if m.r.Bool(m.cfg.Profile.PaidFraction) {
			a.Pricing = catalog.Paid
			price := dist.LogNormal{Mu: m.cfg.Profile.PriceLogMu, Sigma: m.cfg.Profile.PriceLogSigma}.Sample(m.r)
			if price < 0.5 {
				price = 0.5
			}
			if price > 50 {
				price = 50
			}
			a.Price = float64(int(price*100+0.5)) / 100
		} else {
			a.HasAds = m.r.Bool(m.cfg.Profile.AdFraction)
		}
		id := m.cat.AddApp(a)
		// New arrivals start with damped appeal: most newcomers are
		// unpopular; breakout hits are possible but rare.
		m.appeal = append(m.appeal, drawAppeal(m.r, m.cfg.Profile.Apps, m.cfg.Profile.ZipfGlobal)*0.25)
		m.downloads = append(m.downloads, 0)
		m.growTracking(&m.cat.Apps[int(id)])
		m.markRow(int(id))
	}
}

// updatesAndPrices ships version updates and drifts paid prices.
func (m *Market) updatesAndPrices() {
	for i := range m.updateRate {
		if m.r.Bool(m.updateRate[i]) {
			m.cat.Apps[i].Versions++
			m.markRow(i)
		}
		if m.isPaid[i] && m.r.Bool(priceChangeP) {
			a := &m.cat.Apps[i]
			factor := 0.8 + 0.4*m.r.Float64()
			p := a.Price * factor
			if p < 0.5 {
				p = 0.5
			}
			if p > 50 {
				p = 50
			}
			a.Price = float64(int(p*100+0.5)) / 100
			m.markRow(i)
			if j := m.paidIdx[i]; j >= 0 {
				m.paidDirty = append(m.paidDirty, j)
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
func (m *Market) paidWeight(j int32) float64 {
	i := int(m.paidApps[j])
	a := &m.cat.Apps[i]
	w := m.appeal[i]
	// Paying users are more selective (steeper concentration) and
	// price-sensitive.
	w = math.Pow(w, paidSelectivity)
	w /= math.Pow(1+a.Price, priceElasticity)
	if n := m.paidPortfolio[a.Dev]; n > 1 {
		w /= math.Pow(float64(n), shovelwareDamping)
	}
	return w
}

// syncTables brings the sampling tables up to date with the catalog:
// appends arrivals to the append-only free/category tables and patches
// the paid table from its lowest dirty index. Replaces the former full
// per-day rebuild with work proportional to the day's changes while
// producing bit-identical tables (see the field comments on Market).
func (m *Market) syncTables() {
	n := m.cat.NumApps()
	if m.tableN == 0 {
		m.sizeTables()
	}
	// Paid entries from here up are this call's, each enqueued for its
	// weight as it is added.
	added := int32(len(m.paidApps))
	for i := m.tableN; i < n; i++ {
		a := &m.cat.Apps[i]
		w := m.appeal[i]
		if a.Pricing == catalog.Paid {
			m.paidPortfolio[a.Dev]++
			j := int32(len(m.paidApps))
			// The portfolio grew: every paid app this developer already had
			// in the table is damped harder now. This call's own entries are
			// on the list once each already; weights are computed after the
			// loop, from the final portfolios, and listing them again per
			// sibling would weigh an opening catalog's paid apps five times
			// over.
			for _, k := range m.devPaid[a.Dev] {
				if k < added {
					m.paidDirty = append(m.paidDirty, k)
				}
			}
			m.devPaid[a.Dev] = append(m.devPaid[a.Dev], j)
			m.paidApps = append(m.paidApps, a.ID)
			m.paidW = append(m.paidW, 0)
			m.paidCum = append(m.paidCum, 0)
			m.paidIdx[i] = j
			m.paidDirty = append(m.paidDirty, j)
			continue
		}
		var freeSum float64
		if k := len(m.freeCum); k > 0 {
			freeSum = m.freeCum[k-1]
		}
		m.freeCum = append(m.freeCum, freeSum+w)
		m.freeApps = append(m.freeApps, a.ID)
		c := int(a.Category)
		cw := w
		if m.catBias != 1 {
			cw = math.Pow(w, m.catBias)
		}
		var catSum float64
		if k := len(m.catCum[c]); k > 0 {
			catSum = m.catCum[c][k-1]
		}
		m.catCum[c] = append(m.catCum[c], catSum+cw)
		m.catApps[c] = append(m.catApps[c], a.ID)
	}
	m.tableN = n
	// Refresh the stale draw-acceleration hints. Amortized: fresh()
	// tolerates a bounded amount of appended growth, so most days skip
	// the sweeps entirely.
	if !m.freeCumIdx.fresh(m.freeCum) {
		m.freeCumIdx.rebuild(m.freeCum)
	}
	for c := range m.catCumIdx {
		if !m.catCumIdx[c].fresh(m.catCum[c]) {
			m.catCumIdx[c].rebuild(m.catCum[c])
		}
	}
	if len(m.paidDirty) == 0 {
		return
	}
	lo := m.paidDirty[0]
	for _, j := range m.paidDirty[1:] {
		if j < lo {
			lo = j
		}
	}
	for _, j := range m.paidDirty {
		m.paidW[j] = m.paidWeight(j)
	}
	// Re-accumulate the cumulative sums from the lowest patched entry.
	// The stored prefix below lo is the same left-to-right fold a full
	// rebuild would produce, so continuing from it is bit-identical.
	var sum float64
	if lo > 0 {
		sum = m.paidCum[lo-1]
	}
	for j := int(lo); j < len(m.paidW); j++ {
		sum += m.paidW[j]
		m.paidCum[j] = sum
	}
	m.paidDirty = m.paidDirty[:0]
}

// sizeTables gives the sampling tables, before the first syncTables fills
// them, exactly the room the opening catalog takes: one pass counts the
// free apps of every category and the paid apps, the free and paid tables
// are made at those sizes and the per-category ones cut, cap == len once
// filled, out of one array per family. Only where the entries are stored
// changes; syncTables still accumulates them left to right in ID order.
// An arrival then moves the table it extends onto an array of its own,
// with append's usual room to grow.
func (m *Market) sizeTables() {
	perCat := make([]int, len(m.cat.Categories))
	paid := 0
	for i := range m.cat.Apps {
		if a := &m.cat.Apps[i]; a.Pricing == catalog.Paid {
			paid++
		} else {
			perCat[a.Category]++
		}
	}
	free := len(m.cat.Apps) - paid
	m.freeCum = make([]float64, 0, free)
	m.freeApps = make([]catalog.AppID, 0, free)
	m.paidApps = make([]catalog.AppID, 0, paid)
	m.paidW = make([]float64, 0, paid)
	m.paidCum = make([]float64, 0, paid)
	m.paidDirty = make([]int32, 0, paid)
	m.catCum = make([][]float64, len(perCat))
	m.catApps = make([][]catalog.AppID, len(perCat))
	m.catCumIdx = make([]cumIndex, len(perCat))
	cum := make([]float64, free)
	apps := make([]catalog.AppID, free)
	off := 0
	for c, k := range perCat {
		m.catCum[c] = cum[off : off : off+k]
		m.catApps[c] = apps[off : off : off+k]
		off += k
	}
}

const maxRetries = 48

// drawFree performs one clustering-model download for a free-stream user.
func (m *Market) drawFree(u *userState) (catalog.AppID, bool) {
	clustered := u.count() > 0 && m.r.Bool(m.cfg.Profile.ClusterP)
	if clustered {
		for try := 0; try < maxRetries; try++ {
			prev := m.hist.at(u, m.r.Intn(u.count()))
			c := int(m.cat.CategoryOf(prev))
			idx := sampleCum(m.r, m.catCum[c], &m.catCumIdx[c])
			if idx < 0 {
				break
			}
			app := m.catApps[c][idx]
			if !m.hist.has(u, app) {
				return app, true
			}
		}
		// Fall through to a global draw when the user's clusters are
		// saturated.
	}
	for try := 0; try < maxRetries; try++ {
		idx := sampleCum(m.r, m.freeCum, &m.freeCumIdx)
		if idx < 0 {
			return 0, false
		}
		app := m.freeApps[idx]
		if !m.hist.has(u, app) {
			return app, true
		}
	}
	return 0, false
}

// drawPaid performs one selective paid-stream download.
func (m *Market) drawPaid(u *userState) (catalog.AppID, bool) {
	for try := 0; try < maxRetries; try++ {
		idx := sampleCum(m.r, m.paidCum, nil)
		if idx < 0 {
			return 0, false
		}
		app := m.paidApps[idx]
		if !m.hist.has(u, app) {
			return app, true
		}
	}
	return 0, false
}

// paidUser returns (creating on first use) the paid-stream state for a
// user id. States are slab-allocated: paid users are few but arrive
// steadily, and one allocation per slab beats one per user.
func (m *Market) paidUser(uid int32) *userState {
	u := m.usersPaid[uid]
	if u == nil {
		if len(m.paidSlab) == cap(m.paidSlab) {
			m.paidSlab = make([]userState, 0, 128)
		}
		m.paidSlab = append(m.paidSlab, userState{})
		u = &m.paidSlab[len(m.paidSlab)-1]
		m.usersPaid[uid] = u
	}
	return u
}

// simulateDownloads generates the day's download events by consuming the
// next slice of the shuffled per-user schedule.
func (m *Market) simulateDownloads() {
	// Days consumed so far (including this one) determine the cut point so
	// rounding never drops events: the final day drains the schedule.
	consumedDays := m.day + m.cfg.WarmupDays + 1
	hi := m.schedule.len() * consumedDays / m.totalPeriods
	if hi > m.schedule.len() {
		hi = m.schedule.len()
	}
	for ; m.nextEvent < hi; m.nextEvent++ {
		uid := m.schedule.at(m.nextEvent)
		u := &m.freeUsers[uid]
		if app, ok := m.drawFree(u); ok {
			m.hist.record(u, app, m.freeBudget[uid])
			m.downloads[int(app)]++
			m.total++
			m.markDL(int(app))
		}
	}
	if !m.paidVolume {
		return
	}
	// The first call covers all warmup days plus day 0; scale the paid
	// volume by the number of days this call spans.
	daysCovered := 1
	if m.day == 0 {
		daysCovered = m.cfg.WarmupDays + 1
	}
	nPaid := m.r.Poisson(m.dailyPaid * float64(daysCovered))
	for k := 0; k < nPaid; k++ {
		uid := int32(m.r.Intn(m.cfg.Profile.Users))
		u := m.paidUser(uid)
		if app, ok := m.drawPaid(u); ok {
			m.hist.record(u, app, 0)
			m.downloads[int(app)]++
			m.total++
			m.markDL(int(app))
		}
	}
}

// record appends today's snapshot to the series.
func (m *Market) record() {
	n := m.cat.NumApps()
	d := &snapshot.Day{
		Index:               m.day,
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
