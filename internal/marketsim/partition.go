package marketsim

import "planetapps/internal/catalog"

// Partitioner carves a shard's slice out of one market day after day,
// preserving the chunked copy-on-write structure that makes day-rolls
// incremental. A fleet of N store nodes each runs the same deterministic
// market (same config, same seed — Exports are byte-identical across
// processes) and partitions it with its own ownership predicate; the union
// of the fleet's partitions is exactly the full catalog, row for row.
//
// The rows come from either of two sources, read by the one loop below: the
// live market (PartitionMarket — what a shard does, so it never builds,
// keeps or refreshes a dense export it would use a 1/N of) or a dense
// Export already taken (Partition). Same market state, same partition,
// same chunks shared.
//
// The partition is itself an Export, chunked in partition row space:
// chunk c of the partition covers the shard's rows [c*ExportChunk,
// (c+1)*ExportChunk), not the full catalog's. Because the catalog is
// append-only and the ownership predicate is a pure function of the global
// app ID, the partition's row list only ever grows at the tail, so a row's
// partition index is stable for the life of the shard — the property the
// snapshot layer's chunk-granular document carry depends on.
//
// Sharing: a partition chunk whose every row has an unchanged RowVer since
// the previous Partition call is shared with the previous partitioned
// export (both the download and version vectors at ExportChunk grain and
// the catalog rows at appExportChunk grain), so per-shard day-roll cost is
// proportional to the shard's churn, exactly as the dense export's is.
// The scan to decide sharing is O(shard size) integer compares — a few
// microseconds per hundred thousand rows, noise next to the market step.
type Partitioner struct {
	owns func(id int32) bool

	// scanned is how many global rows have been classified so far; ids is
	// the append-only owned-ID list (ascending, because global IDs are
	// scanned in order and arrivals only append).
	scanned int
	ids     []int32

	prev *Export // previous partitioned export, for chunk sharing
}

// NewPartitioner returns a partitioner owning the apps for which owns
// returns true. owns must be deterministic and stable for the life of the
// fleet topology (a consistent-hash ring lookup, a modulus, ...).
func NewPartitioner(owns func(id int32) bool) *Partitioner {
	return &Partitioner{owns: owns}
}

// Owns reports whether the partition owns app id, whether or not the app
// has arrived in the catalog yet.
func (p *Partitioner) Owns(id int32) bool { return p.owns(id) }

// rowSource is one day of one market, row g being app g: what a partition
// is cut from. *Export (dense) and marketRows satisfy it.
type rowSource interface {
	Store() string
	Day() int
	NumApps() int
	CategoryNames() []string
	DeveloperNames() []string
	App(g int) catalog.App
	Downloads(g int) int64
	RowVer(g int) uint32
}

// marketRows reads a market's live state as a rowSource. Valid while the
// market does not step.
type marketRows struct{ m *Market }

func (s marketRows) Store() string            { return s.m.cat.Name }
func (s marketRows) Day() int                 { return s.m.day }
func (s marketRows) NumApps() int             { return s.m.cat.NumApps() }
func (s marketRows) CategoryNames() []string  { return s.m.catNames }
func (s marketRows) DeveloperNames() []string { return s.m.syncDevNames() }
func (s marketRows) App(g int) catalog.App    { return s.m.cat.Apps[g] }
func (s marketRows) Downloads(g int) int64    { return s.m.downloads[g] }
func (s marketRows) RowVer(g int) uint32      { return s.m.rowVer[g] }

// Partition projects a dense export onto the shard. full must come from
// the same market on every call (monotone days, append-only catalog).
// Like Market.Export, Partition must not run concurrently with itself;
// the returned Export is immutable and safe to share.
func (p *Partitioner) Partition(full *Export) *Export { return p.partition(full) }

// PartitionMarket is Partition(m.Export()) without the dense export: the
// owned rows are copied straight out of the market, which neither builds
// nor retains an export on the partition's account. Like Market.Export it
// must not run concurrently with Step.
func (p *Partitioner) PartitionMarket(m *Market) *Export { return p.partition(marketRows{m}) }

func (p *Partitioner) partition(full rowSource) *Export {
	// Extend the owned-ID list over any newly arrived apps.
	for g := p.scanned; g < full.NumApps(); g++ {
		if id := int32(g); p.owns(id) {
			p.ids = append(p.ids, id)
		}
	}
	p.scanned = full.NumApps()

	n := len(p.ids)
	nc := numChunks(n)
	nca := numAppChunks(n)
	e := &Export{
		store:    full.Store(),
		day:      full.Day(),
		n:        n,
		catNames: full.CategoryNames(),
		devNames: full.DeveloperNames(),
		apps:     make([][]catalog.App, nca),
		dls:      make([][]int64, nc),
		vers:     make([][]uint32, nc),
		chunkVer: make([]uint64, nc),
		ids:      p.ids[:n:n],
	}
	prev := p.prev

	// A chunk is shared iff the previous partition has it at the same
	// length (the tail chunk grows with arrivals) and every row's RowVer is
	// unchanged — RowVer covers both the catalog row and the download
	// count, so one test clears the row and download vectors together.
	// Otherwise it is copied out of the source into allocations of its
	// own (the retention argument of Market.Export applies here too). The
	// fresh chunk version is the sum of (RowVer+1) over the chunk's rows:
	// every term is per-row monotone and the row set only grows at the
	// tail, so the sum is monotone across the partitioner's exports and
	// equal sums imply row-by-row equality — the same contract a dense
	// export's chunkVer gives.
	for c := 0; c < nc; c++ {
		lo, hi := chunkSpan(c, n)
		if prev != nil && c < len(prev.vers) && len(prev.vers[c]) == hi-lo {
			pv := prev.vers[c]
			same := true
			for j := lo; j < hi; j++ {
				if full.RowVer(int(e.ids[j])) != pv[j-lo] {
					same = false
					break
				}
			}
			if same {
				e.vers[c] = pv
				e.dls[c] = prev.dls[c]
				e.chunkVer[c] = prev.chunkVer[c]
				continue
			}
		}
		dls := make([]int64, hi-lo)
		vers := make([]uint32, hi-lo)
		var cv uint64
		for j := lo; j < hi; j++ {
			g := int(e.ids[j])
			rv := full.RowVer(g)
			dls[j-lo] = full.Downloads(g)
			vers[j-lo] = rv
			cv += uint64(rv) + 1
		}
		e.dls[c], e.vers[c], e.chunkVer[c] = dls, vers, cv
	}
	for c := 0; c < nca; c++ {
		lo, hi := appChunkSpan(c, n)
		if prev != nil && c < len(prev.apps) && len(prev.apps[c]) == hi-lo {
			same := true
			for j := lo; j < hi; j++ {
				if full.RowVer(int(e.ids[j])) != prev.RowVer(j) {
					same = false
					break
				}
			}
			if same {
				e.apps[c] = prev.apps[c]
				continue
			}
		}
		apps := make([]catalog.App, hi-lo)
		for j := lo; j < hi; j++ {
			apps[j-lo] = full.App(int(e.ids[j]))
		}
		e.apps[c] = apps
	}

	// The shard's download total: summed over owned rows only, so the
	// fleet's totals add up to the dense export's.
	var total int64
	for c := 0; c < nc; c++ {
		for _, d := range e.dls[c] {
			total += d
		}
	}
	e.total = total

	p.prev = e
	return e
}
