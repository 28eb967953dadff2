package storeserver

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"

	"planetapps/internal/arena"
	"planetapps/internal/marketsim"
)

// snapshot is one immutable day of the store: the exported market state
// plus its lazily built, pre-encoded responses. The server publishes a new
// snapshot through an atomic pointer on New, AdvanceDay, and SetComments
// (RCU style: readers load the pointer once and keep serving from that
// snapshot even while a newer one is published), so handlers never touch a
// server-wide lock or the live marketsim.Market. All catalog/download
// fields are write-once at construction; the response caches fill in place
// but each entry is write-once behind an atomic fill state, so the whole
// structure is safe for unsynchronized concurrent reads.
//
// Successive snapshots are built as deltas: documents whose underlying
// rows did not change since the predecessor are carried forward — handle
// for handle, validators and any kept arena bytes included — and every ETag is
// derived from content versions (marketsim row/chunk versions, the
// comments generation) rather than the day, so an unchanged document keeps
// its ETag across days and a conditional crawler earns real cross-day
// 304s.
//
// Document bytes live in the arena table, not the Go heap: arenas[i] is
// the arena that docHandle.arenaIdx == i resolves against. Slot 0..63 —
// the table is capped at 64 so per-block arena-reference masks fit a
// uint64. freshIdx/fresh name the arena this snapshot's own fills
// allocate from; the other non-nil slots are predecessors' arenas that
// carried documents still point into. A slot no carried handle cites is
// nil, so an arena lives as long as some snapshot cites it or some
// response still holds a view into its slabs, and the collector frees it
// after that: nothing is released by hand.
type snapshot struct {
	day    int
	dayStr string
	store  string

	// builtAt anchors the Age header on /api/v1 responses: the freshness
	// clock starts at snapshot publish, not at request time. age caches
	// the rendered header value so the hot path re-renders it at most once
	// per elapsed second instead of per request (see ageString).
	builtAt time.Time
	age     atomic.Pointer[ageVal]

	ex       *marketsim.Export
	n        int // ex.NumApps()
	catNames []string
	devNames []string

	pageSize int

	// comments is the attached population's per-app index, shared by every
	// store the population was installed on and never written (client
	// writes merge into comTab, not here); commentsGen distinguishes
	// successive comment sets in ETags (comments do not change day to day,
	// so their ETags deliberately omit the day and stay valid across
	// snapshots until the next SetComments).
	comments    *comIndex
	commentsGen int64

	// comTab holds the streams client writes have been merged into, with a
	// per-row write version that joins the comment ETag so a written app
	// revalidates while the untouched population keeps its tags (see
	// comtable.go). Chunk pointers equal between successive snapshots mean
	// no stream in that chunk changed and its documents carry forward.
	comTab comTable

	arenas   []*arena.Arena
	fresh    *arena.Arena
	freshIdx uint32

	stats   respCache // single entry: the store stats document
	detail  respCache // one entry per app
	comDocs respCache // one entry per app's comment stream

	// Build accounting, published to the metrics registry by publish():
	// documents carried forward vs allocated fresh (fresh documents
	// re-encode lazily on first request; carried + reencoded == 2n + 1 —
	// a detail and a comment document per app plus stats; listing slices
	// are rendered per request and never counted), documents evacuated by
	// compaction, and arenas targeted for evacuation.
	carried   int64
	reencoded int64
	moved     int64
	compacted int64
}

// maxArenas caps the arena table: docBlock.amask tracks referenced slots
// in a uint64. Reaching the cap forces compaction of the least-live
// arena, so the table cannot wedge.
const maxArenas = 64

// newSnapshot freezes an export plus the current comment set into a
// servable snapshot, carrying unchanged documents forward from prev (nil
// for the first snapshot). Fresh documents are not encoded here — that
// would put O(catalog) JSON work on the AdvanceDay path; each is built on
// first request (see respCache).
func newSnapshot(e *marketsim.Export, prev *snapshot, comments *comIndex, gen int64, tab comTable, pageSize int, slabsMade *atomic.Int64) *snapshot {
	n := e.NumApps()
	sn := &snapshot{
		day:         e.Day(),
		builtAt:     time.Now(),
		dayStr:      strconv.Itoa(e.Day()),
		store:       e.Store(),
		ex:          e,
		n:           n,
		catNames:    e.CategoryNames(),
		devNames:    e.DeveloperNames(),
		pageSize:    pageSize,
		comments:    comments,
		commentsGen: gen,
		comTab:      tab,
	}
	// The stats document embeds the day and the running download total, so
	// it changes every day-roll and is always fresh.
	sn.stats = newRespCache(1)

	if prev == nil {
		sn.fresh = arena.New(slabsMade)
		sn.arenas = []*arena.Arena{sn.fresh}
		sn.freshIdx = 0
		sn.detail = newRespCache(n)
		sn.comDocs = newRespCache(n)
		sn.reencoded = 2*int64(n) + 1
		return sn
	}

	cc := sn.planArenas(prev, slabsMade)
	prevEx := prev.ex
	var carried int

	// An app's detail document is a pure function of its row version
	// (row fields + download count) and the immutable name tables. Whole
	// untouched export chunks (the overwhelming majority at low churn)
	// carry their handle blocks wholesale; only dirty chunks walk rows.
	sn.detail, carried = cc.cache(n, &prev.detail, func(c int) bool {
		return e.ChunkUnchanged(prevEx, c)
	}, func(c int) uint64 {
		return e.UnchangedRows(prevEx, c)
	})
	sn.carried += int64(carried)
	sn.reencoded += int64(n - carried)

	// Comment documents depend on the attached comment set plus any
	// write-merged streams. Within one attached set, a block whose comTab
	// chunk is the predecessor's own carries wholesale (the tail block,
	// where arrivals land, entry by entry); a chunk absorbWrites touched
	// carries the rows whose write version did not move — writes being
	// Zipf-concentrated, nearly all of them — and only written apps
	// re-encode.
	if prev.commentsGen == gen {
		sn.comDocs, carried = cc.cache(n, &prev.comDocs, func(c int) bool {
			return tab.chunk(c) == prev.comTab.chunk(c)
		}, func(c int) uint64 {
			return tab.unchangedRows(prev.comTab, c)
		})
		sn.carried += int64(carried)
		sn.reencoded += int64(n - carried)
	} else {
		sn.comDocs = newRespCache(n)
		sn.reencoded += int64(n)
		cc.dropAll(&prev.comDocs)
	}
	sn.reencoded++ // the always-fresh stats document
	cc.dropAll(&prev.stats)

	sn.moved = cc.moved
	sn.keepCited(cc.used)
	return sn
}

// keepCited keeps the fresh arena and every predecessor arena a carried
// handle cites (bit i of used for slot i) and nils the rest: the collector
// frees an arena once no snapshot cites it and no response holds a view
// into it.
func (sn *snapshot) keepCited(used uint64) {
	for idx := range sn.arenas {
		if uint32(idx) != sn.freshIdx && used&(1<<uint(idx)) == 0 {
			sn.arenas[idx] = nil
		}
	}
}

// planArenas builds the successor's arena table from prev's: pick the
// arenas to compact away (mostly-dead, or evicted for table space), pick
// the slot the build's fresh arena lives in, and return the carry context
// the cache builds thread their bookkeeping through.
//
// Slot-reuse safety: the fresh arena may only take a slot no carried
// handle will resolve — a nil hole (no live handle references an empty
// slot by construction), a newly appended slot, or a compaction victim's
// slot (every surviving document is evacuated out of a victim, so after
// the carry no handle references it under its old meaning).
func (sn *snapshot) planArenas(prev *snapshot, slabsMade *atomic.Int64) *carryCtx {
	tab := append([]*arena.Arena(nil), prev.arenas...)

	// Compaction targets: arenas whose surviving bytes are under a quarter
	// of the slab memory they pin. The measure is the footprint, not the
	// bytes ever allocated: a day's arena on a small shard never leaves its
	// slab ramp, and a few long-lived documents in it must not pin those
	// slabs for months. An arena smaller than one standard slab is judged
	// as if it pinned one: a small, well-filled day arena is still folded
	// into the next day's, or the table would keep one per roll. The
	// table's largest arena is judged against its own footprint: on a small
	// store it is most of what the store holds, and folding it would copy
	// the whole store into every day's arena. An arena that never allocated
	// pins nothing and is left to keepCited. A victim gives the fresh arena
	// less than a quarter of its footprint to copy.
	largest := -1
	for idx, a := range tab {
		if a != nil && (largest < 0 || a.PinnedBytes() > tab[largest].PinnedBytes()) {
			largest = idx
		}
	}
	var compact uint64
	for idx, a := range tab {
		floor := int64(arena.SlabSize)
		if idx == largest {
			floor = 0
		}
		if a != nil && a.PinnedBytes() > 0 && a.LiveBytes()*4 < max(a.PinnedBytes(), floor) {
			compact |= 1 << uint(idx)
		}
	}

	freshIdx := -1
	for idx, a := range tab {
		if a == nil {
			freshIdx = idx
			break
		}
	}
	if freshIdx < 0 && len(tab) < maxArenas {
		tab = append(tab, nil)
		freshIdx = len(tab) - 1
	}
	if freshIdx < 0 {
		// Table full: reuse a victim slot. Prefer an arena already being
		// compacted; otherwise force-compact the one with the least live
		// bytes (cheapest evacuation).
		if compact != 0 {
			freshIdx = bits.TrailingZeros64(compact)
		} else {
			var minLive int64
			for idx, a := range tab {
				if live := a.LiveBytes(); freshIdx < 0 || live < minLive {
					freshIdx, minLive = idx, live
				}
			}
			compact |= 1 << uint(freshIdx)
		}
	}

	sn.fresh = arena.New(slabsMade)
	sn.freshIdx = uint32(freshIdx)
	tab[freshIdx] = sn.fresh
	sn.arenas = tab
	sn.compacted = int64(bits.OnesCount64(compact))
	return &carryCtx{prev: prev, sn: sn, compact: compact}
}

// appendAppName appends "<store>-app-<id zero-padded to 5>" without fmt:
// what fmt.Sprintf("%s-app-%05d", store, id) renders for non-negative ids.
func appendAppName(dst []byte, store string, id int32) []byte {
	var digits [12]byte
	d := strconv.AppendInt(digits[:0], int64(id), 10)
	dst = append(dst, store...)
	dst = append(dst, "-app-"...)
	for i := len(d); i < 5; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// ageVal is one rendered Age header value, cached per snapshot so the
// serving path allocates for it at most once per elapsed second.
type ageVal struct {
	sec int64
	str string
}

// ageString renders seconds-since-publish for the Age header through the
// snapshot's single-entry cache: requests landing in the same wall-clock
// second — all of them, at 100k+ req/s — share one rendered string.
func (sn *snapshot) ageString() string {
	sec := int64(time.Since(sn.builtAt) / time.Second)
	if sec <= 0 {
		return "0"
	}
	if v := sn.age.Load(); v != nil && v.sec == sec {
		return v.str
	}
	v := &ageVal{sec: sec, str: strconv.FormatInt(sec, 10)}
	sn.age.Store(v)
	return v.str
}

// docKind names which of a snapshot's cached documents a view is: the
// serve path re-encodes a document that kept no bytes from its kind and
// row.
type docKind uint8

const (
	docStats docKind = iota
	docDetail
	docComments
)

// doc returns document i of kind k (i is 0 for stats). Callers release
// the view once its body is written.
func (sn *snapshot) doc(k docKind, i int) docView {
	switch k {
	case docStats:
		return sn.stats.get(sn, k, 0)
	case docDetail:
		return sn.detail.get(sn, k, i)
	default:
		return sn.comDocs.get(sn, k, i)
	}
}

// appendDoc appends document i of kind k's identity bytes — the JSON
// value and encoding/json's trailing newline — to dst. The stats document
// is the pre-summed store statistics: the total was accumulated
// incrementally by the market, so rendering it is O(1).
func (sn *snapshot) appendDoc(dst []byte, k docKind, i int) []byte {
	switch k {
	case docStats:
		dst = sn.appendStats(dst)
	case docDetail:
		dst = sn.appendRow(dst, i)
	default:
		dst = appendComments(dst, sn.commentStream(i))
	}
	return append(dst, '\n')
}

// commentStream is row i's comment stream: its write-merged stream when
// client writes reached it, else the attached population's.
func (sn *snapshot) commentStream(i int) []CommentJSON {
	cs, ver := sn.comTab.row(i)
	if ver == 0 {
		cs = sn.comments.stream(sn.ex.ID(i))
	}
	return cs
}

// docETag is document i of kind k's identity ETag.
//
// The stats document embeds the day and the running download total. A
// detail ETag encodes the app's global ID and row version — which
// advances only when the app's servable content (row fields or download
// count) changes — so an unchanged app keeps its ETag across day-rolls (a
// conditional crawler gets a true 304) and across topologies (a shard
// mints the same ETag a single node would: dense exports have ID(i) == i,
// so the wire bytes are unchanged). A comment stream is ETagged by the
// comment generation and the app's global ID; apps that absorbed client
// writes grow a "-w<ver>" suffix so their documents revalidate, and
// never-written apps keep the exact tags they have always minted.
func (sn *snapshot) docETag(k docKind, i int) string {
	switch k {
	case docStats:
		return `"s` + sn.dayStr + `-t` + strconv.FormatInt(sn.ex.TotalDownloads(), 10) + `"`
	case docDetail:
		return `"a` + strconv.FormatInt(int64(sn.ex.ID(i)), 10) +
			`-r` + strconv.FormatUint(uint64(sn.ex.RowVer(i)), 10) + `"`
	default:
		etag := `"c` + strconv.FormatInt(sn.commentsGen, 10) + `-` + strconv.FormatInt(int64(sn.ex.ID(i)), 10)
		if _, ver := sn.comTab.row(i); ver > 0 {
			etag += `-w` + strconv.FormatUint(uint64(ver), 10)
		}
		return etag + `"`
	}
}
