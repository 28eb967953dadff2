package storeserver

// comChunk is the write-merged comment state of one docChunk-row run of
// export rows. Row j has absorbed ver[j] write-merges; once ver[j] > 0,
// streams[j] is its whole stream (the SetComments index's plus every merged
// write) and the index is no longer consulted for it. A chunk is
// immutable from the moment a snapshot can see it.
type comChunk struct {
	ver     [docChunk]uint32
	streams [docChunk][]CommentJSON
}

// noWrites stands in for a nil chunk where rows are compared.
var noWrites comChunk

// comTable is the copy-on-write spine over comChunks, indexed by export
// row: chunk c covers rows [c*docChunk, (c+1)*docChunk), the same spans as
// the comDocs blocks and the export's chunks. Row indices never move —
// dense exports have row == app ID and a Partitioner's ID list is
// append-only — so a chunk pointer that is equal in two tables means 64
// comment documents that are equal too. A nil chunk, or a spine too short
// to reach c, means no row there was ever written. absorbWrites copies the
// spine and the chunks it touches; everything else is shared between the
// server and every snapshot still alive.
type comTable []*comChunk

func (t comTable) chunk(c int) *comChunk {
	if c < len(t) {
		return t[c]
	}
	return nil
}

// row returns row i's merged stream and write version (0: never written,
// serve the base stream).
func (t comTable) row(i int) ([]CommentJSON, uint32) {
	ch := t.chunk(i / docChunk)
	if ch == nil {
		return nil, 0
	}
	return ch.streams[i%docChunk], ch.ver[i%docChunk]
}

// unchangedRows returns the keep mask of chunk c against prev: bit j is
// set iff row c*docChunk+j has the same write version in both tables.
func (t comTable) unchangedRows(prev comTable, c int) uint64 {
	a, b := t.chunk(c), prev.chunk(c)
	if a == b {
		return keepAll
	}
	if a == nil {
		a = &noWrites
	}
	if b == nil {
		b = &noWrites
	}
	var mask uint64
	for j := range a.ver {
		if a.ver[j] == b.ver[j] {
			mask |= 1 << uint(j)
		}
	}
	return mask
}
