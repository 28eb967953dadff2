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

// genesisMemo remembers the last genesis built. The repository runs a
// market as N identical copies in one process (a fleet's shards, the
// benchmark's reference node, a test's twin), built one after another, so
// one entry is the whole working set; it has no size or switch. It keeps at
// most one genesis alive past its markets — ⌈log2 users⌉ bits per scheduled
// event plus 8 B an app and 4 B a user, 18.6 MB at the bench profile.
var genesisMemo struct {
	mu  sync.Mutex // guards key and ent, never a build
	key genesisKey
	ent *genesisEntry
}

type genesisEntry struct {
	once sync.Once
	g    *genesis // nil until the build returns
}

// genesisFor returns the genesis of (seed, p), building it unless the memo
// holds it. Same-key callers coalesce on the entry's Once; a different key
// replaces the entry without waiting for anyone, so concurrent builders of
// differently seeded markets each draw their own, as before the memo.
func genesisFor(seed uint64, p catalog.Profile) *genesis {
	key := genesisKeyOf(seed, p)
	memo := &genesisMemo
	memo.mu.Lock()
	e := memo.ent
	if e == nil || memo.key != key {
		e = &genesisEntry{}
		memo.key, memo.ent = key, e
	}
	memo.mu.Unlock()
	e.once.Do(func() { e.g = buildGenesis(key) })
	if e.g == nil {
		// The entry's build panicked under another caller, which spent the
		// Once. Nothing half-drawn is served: draw privately.
		return buildGenesis(key)
	}
	return e.g
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
