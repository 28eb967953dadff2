package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"planetapps/internal/apiwire"
)

// gwCursorPrefix versions the packed gateway cursor format.
const gwCursorPrefix = "g1:"

// packCursor renders the gateway cursor: per-shard global-app-ID anchors,
// one per ring shard, wrapped opaque. Anchors are global IDs, not row
// indices, so a packed cursor stays valid across fleet day-rolls (the
// catalog is append-only) — the same stability the single-node cursor
// has, lifted to the fleet.
func packCursor(anchors []int32) string {
	var sb strings.Builder
	sb.WriteString(gwCursorPrefix)
	sb.WriteString(strconv.Itoa(len(anchors)))
	for _, a := range anchors {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(a), 10))
	}
	return base64.RawURLEncoding.EncodeToString([]byte(sb.String()))
}

// unpackCursor parses a packed gateway cursor. shards mismatching the
// current ring (a fleet resize since the cursor was minted) is reported
// as !ok — the anchors would resume against the wrong partitions.
func unpackCursor(cur string, shards int) ([]int32, bool) {
	raw, err := base64.RawURLEncoding.DecodeString(cur)
	if err != nil || !strings.HasPrefix(string(raw), gwCursorPrefix) {
		return nil, false
	}
	parts := strings.Split(string(raw[len(gwCursorPrefix):]), ":")
	k, err := strconv.Atoi(parts[0])
	if err != nil || k != shards || len(parts) != k+1 {
		return nil, false
	}
	anchors := make([]int32, k)
	for i, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil || v < 0 {
			return nil, false
		}
		anchors[i] = int32(v)
	}
	return anchors, true
}

// shardPage is one shard's cursor-page response, kept as the bytes it
// arrived in: rows are spans into body, spliced verbatim into the
// assembled page so a row through the gateway is byte-identical to the
// same row from a single node.
type shardPage struct {
	head
	buf    *bytes.Buffer // owns body; back to listBufs once no row is in use
	body   []byte
	rows   []rowSpan
	total  int
	anchor int32 // the global ID this slice was asked from
	next   int32 // decoded next_cursor anchor; -1 = shard reported no more
}

// assembled is one merged gateway listing page. Its head is the shards'
// day and freshness under the gateway's own validator.
type assembled struct {
	head
	rows    [][]byte        // row bytes, each aliasing a shard response body
	bufs    []*bytes.Buffer // those bodies' owners, released after the page is written
	anchors []int32         // next per-shard anchors after this page
	done    bool            // every shard drained: no next page
	total   int
}

// fetchShardPage pulls one shard's listing slice anchored at a global ID
// and locates its rows in place. Beyond being the page a shard writes
// (scanPage) the slice must be a slice of this listing — ids ascending
// from the anchor, a next_cursor past the last row and only after at
// least one row — which is what lets the merge trust it to make progress.
func (g *Gateway) fetchShardPage(ctx context.Context, i int, anchor int32, limit int) (*shardPage, *apiwire.Error) {
	buf, hd, e := g.fetchShard(ctx, i, apiwire.CursorPath(apiwire.EncodeCursor(int(anchor)), limit), maxListBody)
	if e != nil {
		return nil, e
	}
	bad := func(why string) (*shardPage, *apiwire.Error) {
		listBufs.Put(buf)
		return nil, badShardResponse(&g.cfg.Shards[i], why)
	}
	body := buf.Bytes()
	scanned, err := scanPage(body, make([]rowSpan, 0, limit))
	if err != nil {
		return bad(err.Error())
	}
	page := &shardPage{head: hd, buf: buf, body: body, rows: scanned.rows, total: scanned.total, anchor: anchor, next: -1}
	floor := anchor
	for _, row := range page.rows {
		if row.id < floor {
			return bad("rows are not ascending from the cursor")
		}
		floor = row.id + 1
	}
	if len(scanned.next) > 0 {
		v, ok := apiwire.DecodeCursor(string(scanned.next))
		if !ok || len(page.rows) == 0 || int32(v) < floor {
			return bad("unusable next_cursor")
		}
		page.next = int32(v)
	}
	return page, nil
}

// quotas sizes the scatter from the ring: it walks ids upward from the
// lowest anchor, counting for each id still ahead of its owner's anchor
// one row against that owner, until limit rows are accounted for — on a
// dense catalog exactly the rows the merged page will hold, so the
// shards together ship limit rows, not limit each. A shard owed nothing
// is still asked for one row: every page consults every shard for its
// epoch, total and validator. The walk is bounded; anchors too far apart
// to finish within the bound (a forged cursor, a shard that never owned
// a row) fall back to limit everywhere. Quotas only economise: a shard
// that turns out to be owed more is topped up by the merge.
func (g *Gateway) quotas(anchors []int32, limit int) []int {
	q := make([]int, len(anchors))
	lo := anchors[0]
	for _, a := range anchors[1:] {
		lo = min(lo, a)
	}
	end := min(int64(lo)+4*int64(limit), math.MaxInt32+1)
	for id, found := int64(lo), 0; found < limit; id++ {
		if id == end {
			for i := range q {
				q[i] = limit
			}
			return q
		}
		if o := g.ring.Owner(int32(id)); int32(id) >= anchors[o] {
			q[o]++
			found++
		}
	}
	for i := range q {
		q[i] = max(q[i], 1)
	}
	return q
}

// FNV-1a, inlined: the validator digest is a few dozen bytes per page and
// hash/fnv's interface would cost an allocation per write.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvUint32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime64
	}
	return h
}

// assemble builds one merged listing page of up to limit rows starting at
// the per-shard anchors. Every shard is consulted — a shard believed
// exhausted still gets a probe, because a day-roll may have grown its
// partition (append-only catalog) and because the page's epoch check and
// total must cover the whole fleet. Rows merge in ascending global app ID
// order, which is exactly a single node's listing order, so the union
// walk is the single-node walk. A shard whose slice ran out while it has
// more is topped up before any row at or past its next anchor is
// emitted, so the merge is right whatever the shards chose to deliver —
// a quota that undercounted, a shard clamping to a smaller page size.
// Returns (nil, nil) on epoch skew — the caller's retry loop re-fetches;
// anchors are global IDs, valid in any epoch, so the retry needs no
// repositioning.
func (g *Gateway) assemble(ctx context.Context, anchors []int32, limit int) (page *assembled, _ *apiwire.Error) {
	k := len(g.cfg.Shards)
	quota := g.quotas(anchors, limit)
	pages := make([]*shardPage, k)
	gerr := g.scatter(ctx, func(ctx context.Context, i int) *apiwire.Error {
		p, e := g.fetchShardPage(ctx, i, anchors[i], quota[i])
		pages[i] = p
		return e
	})
	// Every body fetched for this page, top-ups included, is held until
	// the page is served; an attempt that yields no page lets go of them.
	held := make([]*bytes.Buffer, 0, k+1)
	for _, p := range pages {
		if p != nil {
			held = append(held, p.buf)
		}
	}
	defer func() {
		if page == nil {
			putListBufs(held)
		}
	}()
	if gerr != nil {
		return nil, gerr
	}
	out := &assembled{
		head:    pages[0].head,
		rows:    make([][]byte, 0, limit),
		anchors: make([]int32, k),
	}
	// The gateway's validator digests the request's position and size and
	// the content-derived ETag of every shard slice the page was built
	// from, so it revalidates (304) exactly when every spanned slice is
	// unchanged — including across day-rolls that left the span untouched.
	sum := uint64(fnvOffset64)
	if limit != g.cfg.PageSize {
		sum = fnvUint32(fnvString(sum, "k"), uint32(limit))
	}
	digest := func(p *shardPage) {
		sum = fnvString(fnvString(fnvUint32(sum, uint32(p.anchor)), p.etag), ";")
	}
	for _, p := range pages {
		if p.day != out.day {
			return nil, nil // epoch skew
		}
		out.total += p.total
		digest(p)
	}

	heads := make([]int, k)
	for len(out.rows) < limit {
		// best: the shard whose buffered head row has the lowest id.
		// starved: of the shards with an empty buffer and more to give,
		// the one resuming lowest.
		best, starved := -1, -1
		for i, p := range pages {
			switch {
			case heads[i] < len(p.rows):
				if best < 0 || p.rows[heads[i]].id < pages[best].rows[heads[best]].id {
					best = i
				}
			case p.next >= 0 && (starved < 0 || p.next < pages[starved].next):
				starved = i
			}
		}
		if starved >= 0 && (best < 0 || pages[starved].next <= pages[best].rows[heads[best]].id) {
			// The next row in ID order may be one the starved shard has
			// not sent yet: fetch the rest of the page from it first.
			p, e := g.fetchShardPage(ctx, starved, pages[starved].next, limit-len(out.rows))
			if e != nil {
				return nil, e
			}
			held = append(held, p.buf)
			if p.day != out.day {
				return nil, nil // epoch skew
			}
			g.topUps.Inc()
			digest(p)
			pages[starved], heads[starved] = p, 0
			continue
		}
		if best < 0 {
			break
		}
		row := pages[best].rows[heads[best]]
		out.rows = append(out.rows, pages[best].body[row.off:row.end])
		heads[best]++
	}
	out.done = true
	for i, p := range pages {
		switch {
		case heads[i] < len(p.rows):
			// Unconsumed buffered rows: resume at the first of them.
			out.anchors[i] = p.rows[heads[i]].id
			out.done = false
		case p.next >= 0:
			// Buffer drained but the shard has more.
			out.anchors[i] = p.next
			out.done = false
		case len(p.rows) > 0:
			// Shard exhausted: park just past its last row, where rows
			// appended by a future day-roll will appear.
			out.anchors[i] = p.rows[len(p.rows)-1].id + 1
		default:
			out.anchors[i] = p.anchor
		}
	}
	out.etag = `"g` + strconv.FormatUint(sum, 16) + `"`
	out.bufs = held
	return out, nil
}

// serveList handles /api/v1/apps: one merged listing slice of limit rows,
// assembled by ID merge from per-shard anchors packed into one opaque
// cursor, under the epoch-retry loop. The query grammar — ?page= refused,
// first value wins, absent or empty cursor starts a walk, limit clamped —
// is the store's. The body is the shards' row bytes spliced between
// hand-written envelope bytes, exactly what encoding the page as JSON
// would produce (compact, next_cursor absent on the last page, trailing
// newline).
func (g *Gateway) serveList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer g.mergeSeconds.ObserveSince(start)
	rq := r.URL.RawQuery
	if _, ok := apiwire.QueryValue(rq, "page"); ok {
		apiwire.PageUnsupported.Write(w)
		return
	}
	anchors := make([]int32, len(g.cfg.Shards))
	if cursor, _ := apiwire.QueryValue(rq, "cursor"); cursor != "" {
		a, ok := unpackCursor(cursor, len(g.cfg.Shards))
		if !ok {
			apiwire.WriteError(w, http.StatusBadRequest, "bad_cursor",
				"cursor is invalid, from an incompatible version, or from a different fleet topology", 0)
			return
		}
		anchors = a
	}
	limit := g.cfg.PageSize
	if lim, _ := apiwire.QueryValue(rq, "limit"); lim != "" {
		v, ok := apiwire.ParseLimit(lim)
		if !ok {
			apiwire.BadLimit.Write(w)
			return
		}
		limit = min(limit, v)
	}
	var asm *assembled
	err := g.retryEpoch(func() (string, *apiwire.Error) {
		a, e := g.assemble(r.Context(), anchors, limit)
		if a == nil {
			return "", e
		}
		asm = a
		return a.day, nil
	})
	if err != nil {
		err.Write(w)
		return
	}
	defer putListBufs(asm.bufs)
	g.mergedPages.Inc()
	if stamp(w, r, asm.head) {
		return
	}
	cursor := ""
	if !asm.done {
		cursor = packCursor(asm.anchors)
	}
	size := 96 + len(cursor) + len(asm.rows) // envelope keys and numbers; one comma per row
	for _, row := range asm.rows {
		size += len(row)
	}
	out := getListBuf()
	defer listBufs.Put(out)
	out.Grow(size)
	buf := append(out.AvailableBuffer(), `{"apps":[`...)
	for i, row := range asm.rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, row...)
	}
	buf = append(buf, ']')
	if cursor != "" {
		buf = append(append(append(buf, `,"next_cursor":"`...), cursor...), '"')
	}
	buf = append(buf, `,"total":`...)
	buf = strconv.AppendInt(buf, int64(asm.total), 10)
	buf = append(buf, "}\n"...)
	writeJSON(w, buf)
}
