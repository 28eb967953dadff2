package storeserver

// ArenaStats describes the serving snapshot's arena table for ops surfaces
// (cmd/bench's arena.* rows, the appstored final stats line).
type ArenaStats struct {
	ArenasLive  int64 `json:"arenas_live"` // non-nil slots in the table
	SlabsLive   int64 `json:"slabs_live"`  // slabs those arenas hold
	SlabsMade   int64 `json:"slabs_made"`  // cumulative slabs taken from the heap
	Compactions int64 `json:"compactions"`
	MovedDocs   int64 `json:"moved_docs"`
	// LiveBytes is what reachable documents occupy; PinnedBytes is the slab
	// memory the table's arenas hold for them (the sum of their slabs'
	// lengths). Their ratio is the slab utilisation compaction keeps above
	// a quarter.
	LiveBytes   int64 `json:"live_bytes"`
	PinnedBytes int64 `json:"pinned_bytes"`
}

// Arena reports the serving snapshot's arena table and the store's slab
// and compaction counters. A retired snapshot's arenas are not counted:
// once no snapshot cites them they are the collector's.
func (s *Server) Arena() ArenaStats {
	st := ArenaStats{
		SlabsMade:   s.slabsMade.Load(),
		Compactions: s.compactions.Value(),
		MovedDocs:   s.movedDocs.Value(),
	}
	for _, a := range s.snap.Load().arenas {
		if a != nil {
			st.ArenasLive++
			st.SlabsLive += int64(a.Slabs())
			st.LiveBytes += a.LiveBytes()
			st.PinnedBytes += a.PinnedBytes()
		}
	}
	return st
}

// publishArenaStats refreshes the arena gauges in the registry; called on
// each /metrics scrape (counters are registered and updated by publish,
// gauges reflect the table at scrape time).
func (s *Server) publishArenaStats() {
	st := s.Arena()
	s.reg.Gauge("store_arena_arenas_live").Set(st.ArenasLive)
	s.reg.Gauge("store_arena_slabs_live").Set(st.SlabsLive)
	s.reg.Gauge("store_arena_slabs_made_total").Set(st.SlabsMade)
	s.reg.Gauge("store_arena_live_bytes").Set(st.LiveBytes)
	s.reg.Gauge("store_arena_pinned_bytes").Set(st.PinnedBytes)
}
