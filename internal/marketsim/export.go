package marketsim

import (
	"sort"

	"planetapps/internal/catalog"
)

// Export chunk geometry for the download and version vectors. 64 apps per
// chunk keeps a chunk cheap to copy when dirty while making the clean
// majority shareable at fine grain.
const (
	chunkShift = 6
	// ExportChunk is the number of apps per copy-on-write export chunk.
	ExportChunk = 1 << chunkShift
	chunkMask   = ExportChunk - 1
)

// numChunks returns the chunk count covering n apps.
func numChunks(n int) int { return (n + ExportChunk - 1) >> chunkShift }

// Export is an immutable view of the market state a serving layer needs:
// the day index, per-app catalog rows, per-app cumulative downloads,
// per-app row versions, and the category/developer name tables. Holders
// may read it indefinitely while the market steps.
//
// The catalog rows are the simulated day's own row array, not a copy: every
// export of one day, whole or partitioned, from any same-key market, reads
// that one array, and holding an export pins it. A day's rows are never
// written once exported (dayView.lent): the step past the day moves the
// simulation onto a copy first.
//
// The download and version vectors are chunked: each chunk is either a
// fresh copy of the market's counts or — when no row in it changed since
// the previous export of the same Partitioner — the previous export's
// chunk, shared. Chunks are write-once after construction, so sharing is
// invisible to readers; it is what makes a daily export O(changed) instead
// of O(catalog).
//
// Version semantics: RowVer(i) advances (at most once per simulated day)
// whenever app i's catalog row or download count changes, so two Exports
// of one market agree on RowVer(i) iff app i's servable content is
// identical in both. chunkVer[c] is the sum of RowVer+1 over chunk c's
// rows and is monotone non-decreasing day over day — equal sums of chunk
// versions over a range therefore imply equal versions chunk by chunk.
type Export struct {
	store string
	day   int
	n     int
	total int64

	catNames []string
	devNames []string

	// rows is the day's whole catalog, cap == len; row i is rows[ID(i)].
	rows     []catalog.App
	dls      [][]int64
	vers     [][]uint32
	chunkVer []uint64

	// ids, when non-nil, marks a sparse (partitioned) export: row i holds
	// the app whose global ID is ids[i], sorted ascending. A nil ids means
	// the export is dense — row i is app i — as every export of a
	// whole-catalog Partitioner (Market.Export) is. The slice is
	// append-only across a partitioner's successive exports, so row i's
	// identity never changes.
	ids []int32
}

// ID returns the global app ID of row i. Dense exports have ID(i) == i.
func (e *Export) ID(i int) int32 {
	if e.ids == nil {
		return int32(i)
	}
	return e.ids[i]
}

// IndexOf returns the row index holding global app ID id, or ok=false when
// the export does not contain it (out of range, or owned by another
// partition). Dense exports answer in O(1); sparse ones binary-search.
func (e *Export) IndexOf(id int32) (int, bool) {
	if id < 0 {
		return 0, false
	}
	if e.ids == nil {
		if int(id) >= e.n {
			return 0, false
		}
		return int(id), true
	}
	i := sort.Search(len(e.ids), func(j int) bool { return e.ids[j] >= id })
	if i < len(e.ids) && e.ids[i] == id {
		return i, true
	}
	return 0, false
}

// IndexAtOrAfter returns the smallest row index whose global app ID is
// >= id (n when every row precedes id). This is the cursor-anchor
// resolution: anchors are global IDs, so a cursor minted against one
// topology resumes at the same app in any other.
func (e *Export) IndexAtOrAfter(id int32) int {
	if id <= 0 {
		return 0
	}
	if e.ids == nil {
		if int(id) > e.n {
			return e.n
		}
		return int(id)
	}
	return sort.Search(len(e.ids), func(j int) bool { return e.ids[j] >= id })
}

// Store returns the store name.
func (e *Export) Store() string { return e.store }

// Day returns the simulated day this export captured.
func (e *Export) Day() int { return e.day }

// NumApps returns the number of apps in the export.
func (e *Export) NumApps() int { return e.n }

// TotalDownloads returns the store-wide cumulative download count.
func (e *Export) TotalDownloads() int64 { return e.total }

// CategoryNames returns the category name table (callers must not
// modify).
func (e *Export) CategoryNames() []string { return e.catNames }

// DeveloperNames returns the developer name table (callers must not
// modify).
func (e *Export) DeveloperNames() []string { return e.devNames }

// App returns app i's catalog row by value.
func (e *Export) App(i int) catalog.App { return e.rows[e.ID(i)] }

// Downloads returns app i's cumulative download count.
func (e *Export) Downloads(i int) int64 { return e.dls[i>>chunkShift][i&chunkMask] }

// RowVer returns app i's content version (see type comment).
func (e *Export) RowVer(i int) uint32 { return e.vers[i>>chunkShift][i&chunkMask] }

// ChunkUnchanged reports whether chunk c holds identical content (rows,
// downloads, versions, and length) in e and prev, where prev is an
// earlier Export of the same market. Chunk versions are monotone, so
// equality means nothing in the chunk moved.
func (e *Export) ChunkUnchanged(prev *Export, c int) bool {
	return prev != nil && c < len(prev.chunkVer) && c < len(e.chunkVer) &&
		prev.chunkVer[c] == e.chunkVer[c]
}

// UnchangedRows returns a bitmask over chunk c's rows: bit j is set iff
// row c*ExportChunk+j exists in both exports with equal row versions —
// i.e. its servable content is identical. Comparing whole version chunks
// here (one linear pass, or a pointer check when the chunk is shared)
// is what keeps a successor snapshot's per-row carry decision O(1) per
// row with no per-row indexing arithmetic.
func (e *Export) UnchangedRows(prev *Export, c int) uint64 {
	if prev == nil || c >= len(e.vers) || c >= len(prev.vers) {
		return 0
	}
	ev, pv := e.vers[c], prev.vers[c]
	k := len(ev)
	if len(pv) < k {
		k = len(pv)
	}
	if k == 0 {
		return 0
	}
	var mask uint64
	if &ev[0] == &pv[0] {
		// Shared chunk: every common row is trivially unchanged.
		mask = ^uint64(0)
	} else {
		for j := 0; j < k; j++ {
			if ev[j] == pv[j] {
				mask |= 1 << uint(j)
			}
		}
	}
	if k < 64 {
		mask &= 1<<uint(k) - 1
	}
	return mask
}

// VersionSum sums the chunk versions of the chunks spanning rows
// [lo, hi). Because chunk versions are monotone across exports of one
// market, equal sums over the same range imply chunk-by-chunk equality —
// a range-level content version suitable for ETags.
func (e *Export) VersionSum(lo, hi int) uint64 {
	if hi > e.n {
		hi = e.n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return 0
	}
	var s uint64
	for c := lo >> chunkShift; c <= (hi-1)>>chunkShift; c++ {
		s += e.chunkVer[c]
	}
	return s
}

// chunkSpan returns the row range [lo, hi) of chunk c given n total rows.
func chunkSpan(c, n int) (lo, hi int) {
	lo = c << chunkShift
	hi = lo + ExportChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Export snapshots the serving-relevant state: the partition that owns the
// whole catalog (a dense export, ID(i) == i), cut by the market's own
// Partitioner. It copies no catalog row, and consecutive exports share
// every count chunk in which no row changed, so the copy cost is
// proportional to the day's churn, not the catalog. Export must not run
// concurrently with Step or with another Export; the returned value is then
// safe to share across goroutines.
func (m *Market) Export() *Export { return m.whole.PartitionMarket(m) }
