package storeserver

import "planetapps/internal/arena"

// ArenaStats summarizes the snapshot arena pool for ops surfaces
// (cmd/bench's arena.* rows, the appstored final stats line).
type ArenaStats struct {
	ArenasLive  int64 `json:"arenas_live"`
	SlabsLive   int64 `json:"slabs_live"`
	SlabsPooled int64 `json:"slabs_pooled"`
	SlabsMade   int64 `json:"slabs_made"`
	SlabsReused int64 `json:"slabs_reused"`
	Compactions int64 `json:"compactions"`
	MovedDocs   int64 `json:"moved_docs"`
	// LiveBytes is what reachable documents occupy; PinnedBytes is the slab
	// memory live arenas hold for them (SlabsLive x arena.SlabSize). Their
	// ratio is the slab utilisation compaction keeps above a quarter.
	LiveBytes   int64 `json:"live_bytes"`
	PinnedBytes int64 `json:"pinned_bytes"`
}

// Arena reports the snapshot slab-pool state.
func (s *Server) Arena() ArenaStats {
	st := s.pool.Stats()
	return ArenaStats{
		ArenasLive:  st.ArenasLive,
		SlabsLive:   st.SlabsLive,
		SlabsPooled: st.SlabsPooled,
		SlabsMade:   st.SlabsMade,
		SlabsReused: st.SlabsReused,
		Compactions: s.compactions.Value(),
		MovedDocs:   s.movedDocs.Value(),
		LiveBytes:   st.LiveBytes,
		PinnedBytes: st.SlabsLive * arena.SlabSize,
	}
}

// publishArenaStats refreshes the slab-pool gauges in the registry;
// called on each /metrics scrape (counters are registered and updated by
// publish, gauges reflect pool occupancy at scrape time).
func (s *Server) publishArenaStats() {
	st := s.Arena()
	s.reg.Gauge("store_arena_arenas_live").Set(st.ArenasLive)
	s.reg.Gauge("store_arena_slabs_live").Set(st.SlabsLive)
	s.reg.Gauge("store_arena_slabs_pooled").Set(st.SlabsPooled)
	s.reg.Gauge("store_arena_slabs_made_total").Set(st.SlabsMade)
	s.reg.Gauge("store_arena_slabs_reused_total").Set(st.SlabsReused)
	s.reg.Gauge("store_arena_live_bytes").Set(st.LiveBytes)
	s.reg.Gauge("store_arena_pinned_bytes").Set(st.PinnedBytes)
}
