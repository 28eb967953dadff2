package marketsim

import "planetapps/internal/catalog"

// histories holds what every user of a market has downloaded, free stream
// and paid stream alike: fetch-at-most-once is a question about a user's
// past, and the clustering draw picks a random entry of it. A history is
// committed as it fills, so a user costs what they have downloaded, not
// what they will. The first len(userState.loc) downloads live in the user's
// own state. After that the history is in pieces: the first takes over what
// the state held, each brings the user's room to pieceGrowth times what they
// hold, and one is cut short where it would pass the user's budget, if that
// is known. So a user with more downloads than the state holds has had
//
//	slots carved <= pieceGrowth × downloads recorded + pieceHdr × (pieces − 1)
//
// and never more than budget + pieceHdr × (pieces − 1). A later piece opens
// with a pieceHdr-slot header naming the piece before it (block, offset of
// its first download, length; it is full by then), so a growing history
// leaves nothing behind, and a walk goes newest piece first, through the
// larger part of the history and the likeliest collisions. Pieces are
// linked, not relocated into one run: the users of a market cross each size
// together (a budget is spread evenly over the period), so the runs a
// relocation frees find no taker and every budget would be held twice at
// drain.
//
// Pieces are bumped off append-only blocks of int32 slots, which the
// collector never scans and which live as long as the market does.
type histories struct {
	blocks [][]catalog.AppID
	slots  int // carved for pieces so far, headers included
}

const (
	pieceHdr = 3
	// pieceGrowth is by measurement (EXPERIMENTS.md "MKT"): every piece is
	// somewhere else in memory, a fetch-at-most-once check walks them all,
	// and late in a long period that walk is a quarter of a Step. Doubling
	// held cmd/bench's 82-download users in four pieces and ran its 4,096
	// days 13 % slower than one run per user; quadrupling holds them in
	// three (16, 48, the 18 left) for 3 %. The first piece is then 16 slots,
	// which the stock profiles' budgets (6–14) fit: one piece of exactly the
	// budget, as when the budget was carved whole.
	pieceGrowth = 4
	// Blocks double from minBlock to maxBlock slots (4 KiB to 256 KiB): a
	// store of a few thousand users holds kilobytes of history, a large one
	// is not made of thousands of small blocks.
	minBlock = 1 << 10
	maxBlock = 1 << 16
)

// ownedThreshold is the history length past which a user gets a hash set
// for ownership checks; membership answers are identical either way. It
// sits where BenchmarkOwnedCrossover has the two level: a download (the
// clustering draw's pick, a check that misses, the record) costs 0.25 µs by
// backward scan against 0.6 by set at 64 downloads, 0.47 against 0.48 at
// 256, 0.74 against 0.69 at 512 — and the scan holds nothing, where a set
// is 30 B an entry.
const ownedThreshold = 256

// userState is one user's history, or where it is. The zero value is a user
// who has downloaded nothing.
type userState struct {
	owned map[catalog.AppID]struct{} // nil until the history outgrows ownedThreshold
	fill  int32                      // downloads in the newest piece; in loc while size is 0
	size  int32                      // room in the newest piece; 0 until the history outgrows loc
	// loc is the history itself, oldest first, while it fits. From then on it
	// is the newest piece's block, the offset of that piece's first download,
	// and the number of downloads in the pieces before it (a piece has a
	// header iff that is not 0).
	loc [4]int32
}

const locBlk, locOff, locOlder = 0, 1, 2

// count is the number of downloads recorded for u.
func (u *userState) count() int {
	if u.size == 0 {
		return int(u.fill)
	}
	return int(u.loc[locOlder] + u.fill)
}

// has reports whether u has downloaded a.
func (h *histories) has(u *userState, a catalog.AppID) bool {
	if u.owned != nil {
		_, ok := u.owned[a]
		return ok
	}
	if u.size == 0 {
		for _, x := range u.loc[:u.fill] {
			if catalog.AppID(x) == a {
				return true
			}
		}
		return false
	}
	// Recent downloads are the likeliest collision (clustering re-draws
	// from the same categories), so scan backwards, newest piece first.
	blk, off, n, older := u.loc[locBlk], u.loc[locOff], u.fill, u.loc[locOlder]
	for {
		b := h.blocks[blk]
		p := b[off : off+n]
		for i := len(p) - 1; i >= 0; i-- {
			if p[i] == a {
				return true
			}
		}
		if older == 0 {
			return false
		}
		hdr := b[off-pieceHdr : off]
		blk, off, n = int32(hdr[0]), int32(hdr[1]), int32(hdr[2])
		older -= n
	}
}

// at returns u's i-th download, oldest first; i must be below u.count().
func (h *histories) at(u *userState, i int) catalog.AppID {
	if u.size == 0 {
		return catalog.AppID(u.loc[i])
	}
	blk, off, older := u.loc[locBlk], u.loc[locOff], int(u.loc[locOlder])
	for i < older {
		hdr := h.blocks[blk][off-pieceHdr : off]
		blk, off = int32(hdr[0]), int32(hdr[1])
		older -= int(hdr[2])
	}
	return h.blocks[blk][int(off)+i-older]
}

// record appends a to u's history. budget is the number of downloads u will
// ever make, or 0 when nobody knows (the paid stream).
func (h *histories) record(u *userState, a catalog.AppID, budget int32) {
	h.push(u, a, budget)
	if u.owned != nil {
		u.owned[a] = struct{}{}
	} else if u.count() >= ownedThreshold {
		u.owned = h.set(u)
	}
}

// push is record without the owned set's upkeep.
func (h *histories) push(u *userState, a catalog.AppID, budget int32) {
	if u.size == 0 && int(u.fill) < len(u.loc) {
		u.loc[u.fill] = int32(a)
	} else {
		if u.fill == u.size || u.size == 0 { // the newest piece is full, or the state is
			h.grow(u, budget)
		}
		h.blocks[u.loc[locBlk]][u.loc[locOff]+u.fill] = a
	}
	u.fill++
}

// set returns u's history as a hash set with room to double.
func (h *histories) set(u *userState) map[catalog.AppID]struct{} {
	n := u.count()
	s := make(map[catalog.AppID]struct{}, 2*n)
	for i := 0; i < n; i++ {
		s[h.at(u, i)] = struct{}{}
	}
	return s
}

// grow gives u, who has filled all they hold, their next piece.
func (h *histories) grow(u *userState, budget int32) {
	n := u.count()
	room := pieceGrowth * n
	if budget > 0 {
		room = min(room, int(budget))
	}
	if u.size == 0 {
		// The first piece takes over what the state held.
		blk, off := h.carve(room)
		for i, x := range u.loc {
			h.blocks[blk][int(off)+i] = catalog.AppID(x)
		}
		u.loc, u.size = [len(u.loc)]int32{locBlk: blk, locOff: off}, int32(room)
		return
	}
	blk, off := h.carve(pieceHdr + room - n)
	copy(h.blocks[blk][off:], []catalog.AppID{catalog.AppID(u.loc[locBlk]), catalog.AppID(u.loc[locOff]), catalog.AppID(u.fill)})
	u.loc = [len(u.loc)]int32{locBlk: blk, locOff: off + pieceHdr, locOlder: int32(n)}
	u.fill, u.size = 0, int32(room-n)
}

// carve bumps n slots off the newest block, opening a new one when they do
// not fit; what is left of the old one, less than a piece, is the only waste.
func (h *histories) carve(n int) (blk, off int32) {
	last := len(h.blocks) - 1
	if last < 0 || cap(h.blocks[last])-len(h.blocks[last]) < n {
		size := minBlock
		if last >= 0 {
			size = min(2*cap(h.blocks[last]), maxBlock)
		}
		h.blocks = append(h.blocks, make([]catalog.AppID, 0, max(size, n)))
		last++
	}
	b := h.blocks[last]
	h.blocks[last] = b[:len(b)+n]
	h.slots += n
	return int32(last), int32(len(b))
}
