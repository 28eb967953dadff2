// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the extension studies DESIGN.md defines. Every
// runner reads the stores it studies through a Suite, one Dataset each:
// the daily series, a catalog view and the comment stream — what the
// paper's crawlers collected into their local database (Figure 1). A Suite
// has one of two sources. NewSuite simulates each store's market once,
// lazily, and keeps the market's own series; NewDatasetSuite holds one
// given dataset, such as Load reads out of a crawl database. A runner that
// needs what only a simulation has — the model alone, or markets planted
// with known parameters — is Skipped on a given dataset.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
	"planetapps/internal/report"
	"planetapps/internal/snapshot"
)

// Config scales the whole experiment suite.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// Scale multiplies the store population profiles (1.0 = the laptop
	// calibration in catalog.Profiles, which is itself ~10x below the
	// paper's stores). Tests use small scales for speed.
	Scale float64
	// Days is the simulated measurement period.
	Days int
	// CommentUsers is the commenting population for the behaviour study.
	CommentUsers int
	// Workers bounds two fan-outs: a runner's stores or datasets fitted
	// at once (F8–F10, X5) and each FitMC's Monte Carlo candidates
	// (FitSpec.Workers). It bounds no more: FitAllMC's three kinds,
	// UserSweepMC's fractions and MCDistance's runs fan out in full, so
	// Workers = 1 still runs several simulations at once. Zero means
	// runtime.GOMAXPROCS(0). Every experiment's result is invariant to
	// Workers; the knob only controls scheduling.
	Workers int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Scale: 1.0, Days: 60, CommentUsers: 30000,
		Workers: runtime.GOMAXPROCS(0)}
}

// Dataset is one store as the runners read it: what a daily crawl of the
// store collects.
type Dataset struct {
	// Series holds one snapshot per observed day; Series.Store names the
	// store.
	Series *snapshot.Series
	// Catalog lists the store's apps as of the last day, in the series' app
	// order. Runners read only what a listing shows of an app: its
	// category, developer, pricing and price.
	Catalog *catalog.Catalog
	// Comments is the time-ordered comment stream, App indexing Catalog. A
	// simulated suite generates one for the §4 study's store only.
	Comments []comments.Comment
}

// Suite carries lazily computed shared state. A Suite is safe for
// concurrent use: independent stores simulate concurrently, and each
// store's dataset, and each model fit Figures 8 and 9 read, is computed
// exactly once (per-key single-flight).
type Suite struct {
	cfg Config
	// given is the one store of a NewDatasetSuite; nil when the suite
	// simulates.
	given *Dataset

	mu     sync.Mutex
	stores map[string]*storeEntry
	fits   map[fitKey]*fitEntry
}

// storeEntry is the single-flight slot for one simulated store: the first
// caller simulates inside the Once while concurrent callers for the same
// store wait, and callers for other stores proceed independently.
type storeEntry struct {
	once sync.Once
	ds   *Dataset
	err  error
}

// NewSuite creates a suite of simulated stores.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("experiments: Scale = %v", cfg.Scale)
	}
	if cfg.Days < 2 {
		return nil, fmt.Errorf("experiments: Days = %d", cfg.Days)
	}
	if cfg.CommentUsers < 100 {
		return nil, fmt.Errorf("experiments: CommentUsers = %d, need >= 100", cfg.CommentUsers)
	}
	return newSuite(cfg, nil)
}

// NewDatasetSuite creates a suite whose one store is ds: it fills every
// role the paper gives a store — summarized, fitted, commented on, priced.
// seed and workers are Config's.
func NewDatasetSuite(ds *Dataset, seed uint64, workers int) (*Suite, error) {
	return newSuite(Config{Seed: seed, Workers: workers}, ds)
}

func newSuite(cfg Config, given *Dataset) (*Suite, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("experiments: Workers = %d, need >= 0", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Suite{cfg: cfg, given: given, stores: map[string]*storeEntry{}, fits: map[fitKey]*fitEntry{}}, nil
}

// StoreNames returns the store names in presentation order: the simulated
// profiles, largest stores first as in the paper's tables, or the given
// dataset's one store.
func (s *Suite) StoreNames() []string {
	if s.given != nil {
		return []string{s.given.Series.Store}
	}
	return []string{"anzhi", "appchina", "1mobile", "slideme"}
}

// fitStores are the stores Figures 8–10 fit models against: the paper's
// three, or the given dataset's store.
func (s *Suite) fitStores() []string {
	if s.given != nil {
		return s.StoreNames()
	}
	return []string{"appchina", "anzhi", "1mobile"}
}

// role returns the store the paper studies for one purpose — "anzhi" for
// the §4 comment study, "slideme" for the §6 pricing study — or, on a given
// dataset, its store.
func (s *Suite) role(store string) string {
	if s.given != nil {
		return s.given.Series.Store
	}
	return store
}

// commentStore is the simulated store whose dataset carries comments.
const commentStore = "anzhi"

// Store returns one store's dataset, simulating it on first use. The suite
// mutex guards only the entry lookup; the simulation runs inside the
// entry's Once, so callers asking for different stores simulate in parallel
// while callers for the same store coalesce onto one computation.
func (s *Suite) Store(name string) (*Dataset, error) {
	if s.given != nil {
		if name != s.given.Series.Store {
			return nil, fmt.Errorf("experiments: unknown store %q", name)
		}
		return s.given, nil
	}
	s.mu.Lock()
	e, ok := s.stores[name]
	if !ok {
		e = &storeEntry{}
		s.stores[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.ds, e.err = s.simulate(name) })
	return e.ds, e.err
}

// simulate builds and runs one store's market and keeps what a crawl of it
// collects: the series, the final catalog and, for the comment study's
// store, a comment stream generated over that catalog.
func (s *Suite) simulate(store string) (*Dataset, error) {
	prof, ok := catalog.Profiles[store]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown store %q", store)
	}
	cfg := marketsim.DefaultConfig(prof.Scale(s.cfg.Scale))
	cfg.Days = s.cfg.Days
	m, err := marketsim.New(cfg, s.cfg.Seed+storeSeed(store))
	if err != nil {
		return nil, err
	}
	series, err := m.Run()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Series: series, Catalog: m.Catalog()}
	if store == commentStore {
		gcfg := comments.DefaultGenConfig(s.cfg.CommentUsers)
		gcfg.Days = s.cfg.Days
		if ds.Comments, err = comments.Generate(ds.Catalog, gcfg, s.cfg.Seed+0xc0ffee); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// storeSeed gives each store an independent but deterministic seed offset.
func storeSeed(store string) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(store) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// CommentData returns the §4 comment study's catalog view and comment
// stream.
func (s *Suite) CommentData() (*catalog.Catalog, []comments.Comment, error) {
	ds, err := s.Store(s.role(commentStore))
	if err != nil {
		return nil, nil, err
	}
	if len(ds.Comments) == 0 {
		return nil, nil, &Skipped{"the store has no comments"}
	}
	return ds.Catalog, ds.Comments, nil
}

// Skipped is the error of a runner whose question the suite's data cannot
// answer; Print writes it in place of the runner's tables.
type Skipped struct{ Reason string }

func (e *Skipped) Error() string { return "skipped: " + e.Reason }

// simulated refuses a given dataset to a runner that reads only what a
// simulation has.
func (s *Suite) simulated(why string) error {
	if s.given != nil {
		return &Skipped{why}
	}
	return nil
}

// Result is the common interface of experiment outputs: renderable
// tables. The registry key names the experiment.
type Result interface {
	// Tables renders the result for terminal or markdown output.
	Tables() []*report.Table
}

// Runner executes one experiment against a suite.
type Runner func(*Suite) (Result, error)

// registry maps experiment IDs to runners; populated by init() funcs in the
// per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns all registered experiment IDs in a stable order: T*, F* by
// number, then X*.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i], out[j]) })
	return out
}

func lessID(a, b string) bool {
	rank := func(id string) (int, int) {
		class := 3
		switch id[0] {
		case 'T':
			class = 0
		case 'F':
			class = 1
		case 'X':
			class = 2
		}
		n := 0
		fmt.Sscanf(id[1:], "%d", &n) //nolint:errcheck // 0 on failure is fine
		return class, n
	}
	ca, na := rank(a)
	cb, nb := rank(b)
	if ca != cb {
		return ca < cb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// Run executes the experiment with the given ID.
func Run(s *Suite, id string) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(s)
}

// Print runs the named experiments (every registered one when ids is empty)
// and writes each one's tables to w under a "===== ID =====" header, or a
// "## ID" section when markdown; a Skipped runner gets its one line instead.
// progress, when non-nil, gets each runner's wall time.
func Print(w io.Writer, s *Suite, ids []string, markdown bool, progress io.Writer) error {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		start := time.Now()
		if markdown {
			fmt.Fprintf(w, "## %s\n\n```\n", id)
		} else {
			fmt.Fprintf(w, "===== %s =====\n", id)
		}
		res, err := Run(s, id)
		var skip *Skipped
		switch {
		case errors.As(err, &skip):
			fmt.Fprintf(w, "%v\n\n", skip)
		case err != nil:
			return fmt.Errorf("experiments: %s: %w", id, err)
		default:
			for _, t := range res.Tables() {
				if _, err := t.WriteTo(w); err != nil {
					return fmt.Errorf("experiments: %s: %w", id, err)
				}
				fmt.Fprintln(w)
			}
		}
		if markdown {
			fmt.Fprintf(w, "```\n\n")
		}
		if progress != nil {
			fmt.Fprintf(progress, "experiments: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
