package marketsim

import (
	"math"
	"sync"

	"planetapps/internal/catalog"
	"planetapps/internal/rng"
)

// genesis is everything New draws from the market stream before it first
// reads the catalog: one appeal per opening app, one download budget per
// user, the shuffled packed schedule, and the generator as the last shuffle
// draw left it. It is a pure function of its genesisKey and is never
// written once built — markets read schedule and freeBudget in place and
// only ever append to appeal, which New hands out capped — so any number of
// same-key markets may hold one genesis, from any number of goroutines.
type genesis struct {
	appeal     []float64
	freeBudget []int32
	schedule   packedSeq
	r          rng.RNG
}

// genesisKey names the inputs the genesis draws read, and no others: the
// rest of Config and Profile reaches the stream only after the join. The
// two floats are keyed by their bits, so -0 is not 0 and a NaN is itself.
type genesisKey struct {
	seed             uint64
	apps, users      int
	zipfGlobal       uint64
	downloadsPerUser uint64
}

func genesisKeyOf(seed uint64, p catalog.Profile) genesisKey {
	return genesisKey{seed, p.Apps, p.Users, math.Float64bits(p.ZipfGlobal), math.Float64bits(p.DownloadsPerUser)}
}

// dayZeroKey names a day-0 market: its genesis key, whose two floats are
// keyed by their bits, and the whole Config, so a field New comes to read
// can never go stale here. Config's floats compare by value: a NaN field
// never hits, and outside the genesis -0 hits 0, which a day-0 build only
// adds, multiplies and compares (catalog.Generate, rng.RNG.Bool and the
// catBias guard), building one market for both. The hit keeps its own
// Config, so what Step reads is the caller's.
type dayZeroKey struct {
	g   genesisKey
	cfg Config
}

// The repository runs a market as N identical copies in one process (a
// fleet's shards, the benchmark's reference node, a test's twin), built one
// after another, so each memo keeps one entry; it has no size or switch.
//
// genesisMemo keeps at most one genesis alive past its markets: ⌈log2
// users⌉ bits per scheduled event plus 8 B an app and 4 B a user, 18.6 MB
// at the bench profile. dayZeroMemo holds the last day-0 market built — its
// day-0 view, and through it the key's simulation (the catalog, 9.0 MB
// there, and the sampling tables, user states and tracking arrays), and its
// counts and row versions — until a market handed it first steps, which
// retires the entry: a key's markets are all built before any rolls, and a
// later New of the key builds again. The simulation lives on for as long as
// a market holds a view of it (day.go).
var (
	genesisMemo memo[genesisKey, genesis]
	dayZeroMemo memo[dayZeroKey, Market]
)

// memo remembers the last value built and the key it was built for.
type memo[K comparable, V any] struct {
	mu  sync.Mutex // guards key and ent, never a build
	key K
	ent *memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    *V // nil until the build returns
}

// get returns key's value and the entry holding it, calling build unless
// the memo holds it. Same-key callers coalesce on the entry's Once; a
// different key replaces the entry without waiting for anyone, so
// concurrent builders of different keys each build their own. A build that
// returns nil is not served: the next caller builds privately.
func (m *memo[K, V]) get(key K, build func() *V) (*V, *memoEntry[V]) {
	m.mu.Lock()
	e := m.ent
	if e == nil || m.key != key {
		e = &memoEntry[V]{}
		m.key, m.ent = key, e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	if e.v == nil {
		// The entry's build panicked or failed, maybe under another caller,
		// and spent the Once. Nothing half-built is served: build privately.
		return build(), e
	}
	return e.v, e
}

// retire empties the memo if e is still its entry.
func (m *memo[K, V]) retire(e *memoEntry[V]) {
	m.mu.Lock()
	if m.ent == e {
		m.ent = nil
	}
	m.mu.Unlock()
}

// genesisFor returns the genesis of (seed, p), drawing it unless the memo
// holds it.
func genesisFor(seed uint64, p catalog.Profile) *genesis {
	key := genesisKeyOf(seed, p)
	g, _ := genesisMemo.get(key, func() *genesis { return buildGenesis(key) })
	return g
}

// buildGenesis draws a genesis from the seed's market stream. The order —
// appeals, budgets, one shuffle — is the seed's contract (package comment).
func buildGenesis(k genesisKey) *genesis {
	r := rng.New(k.seed).Split(0x6d61726b6574) // "market"
	zipfGlobal, d := math.Float64frombits(k.zipfGlobal), math.Float64frombits(k.downloadsPerUser)
	g := &genesis{}
	// One appeal per generated app: catalog.Generate makes exactly
	// Profile.Apps of them, or refuses the profile (reported at New's join).
	g.appeal = make([]float64, 0, max(k.apps, 0))
	for i := 0; i < k.apps; i++ {
		g.appeal = append(g.appeal, drawAppeal(r, k.apps, zipfGlobal))
	}
	// Per-user budgets: floor(d) plus one with probability frac(d), the
	// same convention the model package uses. The flattened, shuffled
	// schedule interleaves users across the whole period.
	g.freeBudget = make([]int32, k.users)
	events := 0
	for u := range g.freeBudget {
		n := int(d)
		if r.Bool(d - float64(n)) {
			n++
		}
		g.freeBudget[u] = int32(n)
		events += n
	}
	// Budgets first, then the schedule at its exact size (filling it draws
	// nothing, so the RNG stream is unchanged). The int32 form lives only
	// for the shuffle.
	order := make([]int32, 0, events)
	for u, n := range g.freeBudget {
		for j := int32(0); j < n; j++ {
			order = append(order, int32(u))
		}
	}
	r.ShuffleInt32(order)
	g.schedule = packSeq(order, k.users)
	g.r = *r
	return g
}
