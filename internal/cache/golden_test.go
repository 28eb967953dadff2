package cache

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenHashes pins every policy's ordering: the values were produced by
// the per-policy implementations that preceded the shared residency ledger
// (PR 17's tree) and must never change — a different hash means a policy
// now hits, misses or evicts differently on the same stream.
var goldenHashes = map[string][2]uint64{ // {unit cost, mixed cost}
	"LRU":           {0x89776bb300a33035, 0x3cc99a4c82b8f68e},
	"FIFO":          {0xdd44356aa8e4f913, 0x18c57e7b22a664e6},
	"LFU":           {0x7d9d75c22ff94333, 0x4665470e38d2d4f1},
	"2Q":            {0x5151d1c0682f266e, 0xcc70f764a9cac98d},
	"CategoryAware": {0x4d104464b4f201b6, 0x8a17d7284eac9242},
}

// goldenStream is a fixed xorshift64 request stream: three quarters of the
// requests go to a 96-key hot set, the rest to a 4,096-key tail.
type goldenStream uint64

func (s *goldenStream) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = goldenStream(x)
	return x
}

func (s *goldenStream) key() int32 {
	r := s.next()
	if r&3 != 0 {
		return int32((r >> 8) % 96)
	}
	return int32((r >> 8) % 4096)
}

// goldenRun replays n accesses and hashes every hit/miss bit, every evicted
// key in order, and Len/Cost every 1,000 accesses.
func goldenRun(p Policy[int32], n int, access func(s *goldenStream, i int) bool) uint64 {
	h := fnv.New64a()
	put := func(tag byte, v int64) {
		var b [9]byte
		b[0] = tag
		binary.LittleEndian.PutUint64(b[1:], uint64(v))
		h.Write(b[:])
	}
	p.OnEvict(func(id int32) { put('E', int64(id)) })
	s := goldenStream(0x9e3779b97f4a7c15)
	for i := 1; i <= n; i++ {
		if access(&s, i) {
			put('H', 1)
		} else {
			put('H', 0)
		}
		if i%1000 == 0 {
			put('L', int64(p.Len()))
			put('C', p.Cost())
		}
	}
	return h.Sum64()
}

func TestGoldenOrderings(t *testing.T) {
	const n = 40000
	for i := range costPolicies(2) {
		// Unit cost, warmed with the 64 most popular keys, as Simulate does.
		p := costPolicies(64)[i]
		warm := make([]int32, 64)
		for k := range warm {
			warm[k] = int32(k)
		}
		p.Warm(warm)
		unit := goldenRun(p, n, func(s *goldenStream, _ int) bool { return p.Access(s.key()) })

		// Mixed cost through a 1,000-unit budget: a key's cost is mostly a
		// function of the key, but one access in eight re-costs it (a
		// resident key growing or shrinking in place), and the draw
		// includes costs below 1 and beyond the whole capacity.
		q := costPolicies(1000)[i]
		mixed := goldenRun(q, n, func(s *goldenStream, _ int) bool {
			k := s.key()
			cost := int64(5 + k%60)
			if r := s.next(); r&7 == 0 {
				switch (r >> 3) & 7 {
				case 0:
					cost = int64(r>>8)%3 - 1 // -1, 0, 1
				case 1:
					cost = 1001 + int64(r>>8)%500 // larger than the cache
				default:
					cost = 1 + int64(r>>8)%400
				}
			}
			return q.AccessCost(k, cost)
		})

		got := [2]uint64{unit, mixed}
		if want, ok := goldenHashes[p.Name()]; !ok || got != want {
			t.Errorf("%q: {%#x, %#x}, want {%#x, %#x}", p.Name(), got[0], got[1], want[0], want[1])
		}
	}
}
