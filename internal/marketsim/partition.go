package marketsim

// Partitioner carves a slice of one market day after day, preserving the
// chunked copy-on-write structure that makes day-rolls incremental. It is
// the one export engine: a single store's Export is the partition of a
// partitioner that owns the whole catalog, and a fleet of N store nodes
// each runs the same deterministic market (same config, same seed) and
// partitions it with its own ownership predicate; the union of the fleet's
// partitions is exactly the whole catalog's, row for row. A partition reads
// its rows in the day's own row array and copies only its counts out of the
// live market, so a shard never builds or keeps a dense export it would use
// a 1/N of, nor a copy of the catalog rows.
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
// the previous call shares the previous export's download and version
// vectors, so a day-roll costs the day's churn. The scan to decide sharing
// is O(partition size) integer compares — a few microseconds per hundred
// thousand rows, noise next to the market step.
type Partitioner struct {
	owns func(id int32) bool // nil: the whole catalog, exported dense

	// scanned is how many global rows have been classified so far; ids is
	// the append-only owned-ID list (ascending, because global IDs are
	// scanned in order and arrivals only append). Both stay zero for the
	// whole catalog.
	scanned int
	ids     []int32

	prev *Export // previous export, for chunk sharing
}

// NewPartitioner returns a partitioner owning the apps for which owns
// returns true. owns must be deterministic and stable for the life of the
// fleet topology (a consistent-hash ring lookup, a modulus, ...). A nil
// owns owns the whole catalog, and its exports are dense (ID(i) == i).
func NewPartitioner(owns func(id int32) bool) *Partitioner {
	return &Partitioner{owns: owns}
}

// global returns the market row of partition row j.
func (p *Partitioner) global(j int) int {
	if p.owns == nil {
		return j
	}
	return int(p.ids[j])
}

// PartitionMarket exports the partition's rows of m's current day, sharing
// every chunk with no changed row with the previous call's export. It lends
// the day's rows out (dayView.lent), so that no step writes them again. m must
// be the same market on every call (monotone days, append-only catalog).
// It must not run concurrently with Step or with itself; the returned
// Export is immutable and safe to share.
func (p *Partitioner) PartitionMarket(m *Market) *Export {
	n := m.cat.NumApps()
	if p.owns != nil {
		// Extend the owned-ID list over any newly arrived apps.
		for g := p.scanned; g < n; g++ {
			if id := int32(g); p.owns(id) {
				p.ids = append(p.ids, id)
			}
		}
		p.scanned = n
		n = len(p.ids)
	}
	nc := numChunks(n)
	m.v.lent.Store(true)
	e := &Export{
		store:    m.cat.Name,
		day:      m.v.day,
		n:        n,
		catNames: m.v.catNames,
		devNames: m.v.devNames,
		rows:     m.cat.Apps, // the view's, clipped
		dls:      make([][]int64, nc),
		vers:     make([][]uint32, nc),
		chunkVer: make([]uint64, nc),
	}
	if p.owns != nil {
		e.ids = p.ids[:n:n]
	}
	prev := p.prev
	// The download total is carried: a shared chunk's downloads are the
	// previous export's, so only copied chunks move it. It sums owned rows
	// only, so the fleet's totals add up to the whole catalog's.
	if prev != nil {
		e.total = prev.total
	}

	// A chunk is shared iff the previous export has it at the same length
	// (the tail chunk grows with arrivals) and every row's RowVer is
	// unchanged — RowVer covers both the catalog row and the download
	// count, so one test clears the row and download vectors together.
	// Otherwise it is copied out of the market into allocations of its own:
	// a chunk shared forward for months must pin only itself, not the rest
	// of the export that first copied it (DESIGN.md §8). The fresh chunk
	// version is the sum of (RowVer+1) over the chunk's rows: every term is
	// per-row monotone and the row set only grows at the tail, so the sum
	// is monotone across the partitioner's exports and equal sums imply
	// row-by-row equality.
	for c := 0; c < nc; c++ {
		lo, hi := chunkSpan(c, n)
		if prev != nil && c < len(prev.vers) && len(prev.vers[c]) == hi-lo {
			pv := prev.vers[c]
			same := true
			for j := lo; j < hi; j++ {
				if m.rowVer[p.global(j)] != pv[j-lo] {
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
		if prev != nil && c < len(prev.dls) {
			for _, d := range prev.dls[c] {
				e.total -= d
			}
		}
		dls := make([]int64, hi-lo)
		vers := make([]uint32, hi-lo)
		var cv uint64
		for j := lo; j < hi; j++ {
			g := p.global(j)
			d, rv := m.downloads[g], m.rowVer[g]
			dls[j-lo], vers[j-lo] = d, rv
			cv += uint64(rv) + 1
			e.total += d
		}
		e.dls[c], e.vers[c], e.chunkVer[c] = dls, vers, cv
	}
	p.prev = e
	return e
}
