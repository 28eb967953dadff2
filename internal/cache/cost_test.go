package cache

import (
	"fmt"
	"runtime"
	"testing"
)

// policies under test, built fresh per case.
func costPolicies(capacity int) []Policy[int32] {
	return []Policy[int32]{
		NewLRU[int32](capacity),
		NewFIFO[int32](capacity),
		NewLFU[int32](capacity),
		NewTwoQ[int32](capacity),
		NewCategoryAware(CategoryAwareConfig[int32]{
			Capacity:   capacity,
			CategoryOf: func(id int32) int32 { return id % 4 },
		}),
	}
}

// TestAccessCostUnitEquivalence pins the satellite guarantee: a unit-cost
// AccessCost stream is bit-identical to the historical Access stream —
// same hits, same residents — so every offline simulator result is
// unchanged by the byte-cost extension.
func TestAccessCostUnitEquivalence(t *testing.T) {
	const capacity = 48
	trace := make([]int32, 0, 4096)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		// Skewed ids so hits, evictions, and ghost promotions all occur.
		trace = append(trace, int32((state>>33)%193))
	}
	unit := costPolicies(capacity)
	cost := costPolicies(capacity)
	for pi := range unit {
		name := unit[pi].Name()
		for i, id := range trace {
			a := unit[pi].Access(id)
			b := cost[pi].AccessCost(id, 1)
			if a != b {
				t.Fatalf("%s: step %d (id %d): Access=%v AccessCost(…,1)=%v", name, i, id, a, b)
			}
		}
		if unit[pi].Len() != cost[pi].Len() {
			t.Fatalf("%s: Len diverged: %d vs %d", name, unit[pi].Len(), cost[pi].Len())
		}
		if got, want := cost[pi].Cost(), int64(cost[pi].Len()); got != want {
			t.Fatalf("%s: unit-cost Cost() = %d, want Len() = %d", name, got, want)
		}
		for id := int32(0); id < 193; id++ {
			if unit[pi].Contains(id) != cost[pi].Contains(id) {
				t.Fatalf("%s: residency of id %d diverged", name, id)
			}
		}
	}
}

// TestByteCostCapacityInvariant drives every policy with variable-cost
// accesses and checks that the resident cost never exceeds capacity and
// that the eviction hook keeps an external map in exact sync — the
// contract the edge tier's byte-sized cache depends on.
func TestByteCostCapacityInvariant(t *testing.T) {
	const capacity = 1000
	for _, p := range costPolicies(capacity) {
		t.Run(p.Name(), func(t *testing.T) {
			resident := map[int32]bool{}
			p.OnEvict(func(id int32) { delete(resident, id) })
			state := uint64(12345)
			for i := 0; i < 6000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				id := int32((state >> 33) % 97)
				cost := int64(10 + (state>>20)%300) // 10..309 bytes
				p.AccessCost(id, cost)
				if p.Contains(id) {
					resident[id] = true
				} else {
					delete(resident, id)
				}
				if got := p.Cost(); got > capacity {
					t.Fatalf("step %d: Cost %d exceeds capacity %d", i, got, capacity)
				}
				if len(resident) != p.Len() {
					t.Fatalf("step %d: hook-tracked residents %d != Len %d", i, len(resident), p.Len())
				}
			}
			for id := range resident {
				if !p.Contains(id) {
					t.Fatalf("hook-tracked id %d not resident", id)
				}
			}
		})
	}
}

// TestOversizeNotAdmitted: an entry larger than the whole cache must be
// rejected without evicting anything.
func TestOversizeNotAdmitted(t *testing.T) {
	for _, p := range costPolicies(100) {
		t.Run(p.Name(), func(t *testing.T) {
			p.AccessCost(1, 40)
			p.AccessCost(2, 40)
			if hit := p.AccessCost(3, 101); hit {
				t.Fatal("oversize access reported a hit")
			}
			if p.Contains(3) {
				t.Fatal("oversize entry was admitted")
			}
			if !p.Contains(1) || !p.Contains(2) {
				t.Fatal("oversize admission evicted resident entries")
			}
		})
	}
}

// TestCostGrowthTrims: when a resident entry is re-accessed at a larger
// cost (a document grew across a day-roll), the cache re-accounts it and
// trims other entries to restore the capacity invariant.
func TestCostGrowthTrims(t *testing.T) {
	for _, p := range costPolicies(100) {
		t.Run(p.Name(), func(t *testing.T) {
			p.AccessCost(1, 30)
			p.AccessCost(2, 30)
			p.AccessCost(3, 30)
			if !p.AccessCost(2, 90) {
				t.Fatal("resident re-access did not hit")
			}
			if !p.Contains(2) {
				t.Fatal("grown entry was dropped despite fitting")
			}
			if got := p.Cost(); got > 100 {
				t.Fatalf("Cost %d exceeds capacity after growth", got)
			}
		})
	}
}

// TestLRUByteOrder pins the eviction order in byte mode: the least
// recently used entries go first, regardless of size.
func TestLRUByteOrder(t *testing.T) {
	c := NewLRU[int32](100)
	var evicted []int32
	c.OnEvict(func(id int32) { evicted = append(evicted, id) })
	c.AccessCost(1, 50)
	c.AccessCost(2, 30)
	c.AccessCost(3, 20) // full: 100
	c.AccessCost(1, 50) // refresh 1; order now 1,3,2
	c.AccessCost(4, 50) // must evict 2 (30) and 3 (20)
	if fmt.Sprint(evicted) != "[2 3]" {
		t.Fatalf("evicted %v, want [2 3]", evicted)
	}
	if !c.Contains(1) || !c.Contains(4) {
		t.Fatal("wrong residents after byte eviction")
	}
	if c.Cost() != 100 || c.Len() != 2 {
		t.Fatalf("Cost=%d Len=%d after eviction", c.Cost(), c.Len())
	}
}

// TestByteBudgetedLedgerStartsEmpty: a capacity in bytes says nothing about
// how many entries will be resident, so a byte-budgeted policy is built
// holding no map slots for them (a hint capped at 65,536 entries was 6.8 MB
// of every edge, which holds a few thousand); an entry-count capacity still
// gets its map made once.
func TestByteBudgetedLedgerStartsEmpty(t *testing.T) {
	built := func(capacity int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := NewLRU[int32](capacity)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p)
		return after.TotalAlloc - before.TotalAlloc
	}
	if b := built(64 << 20); b > 4096 {
		t.Fatalf("an LRU over a 64 MiB byte budget allocated %d bytes before its first entry", b)
	}
	if b := built(4096); b < 4096*4 {
		t.Fatalf("an LRU of 4096 entries allocated %d bytes: its map was not made for them", b)
	}
}
