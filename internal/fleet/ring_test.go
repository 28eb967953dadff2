package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"planetapps/internal/rng"
)

// TestOwnerMatchesSortedSearch holds the ring to the form its bucket table
// and inline hash replaced: points hashed by hash/fnv over sixteen bytes,
// ids over eight, and the owner found by a binary search of every point.
// Ids 0..2^20 and 2^20 seeded random int32s, negative ones included, on
// rings of 1-16 shards at one, the default and 512 vnodes.
func TestOwnerMatchesSortedSearch(t *testing.T) {
	hash := func(b []byte) uint64 {
		f := fnv.New64a()
		f.Write(b) //nolint:errcheck // a hash.Hash never fails
		return rng.Mix64(f.Sum64())
	}
	r := rng.New(7)
	ids := make([]int32, 0, 2<<20)
	for id := int32(0); id < 1<<20; id++ {
		ids = append(ids, id)
	}
	for len(ids) < cap(ids) {
		ids = append(ids, int32(uint32(r.Uint64())))
	}
	// An id's hash is the same on every ring.
	hashes := make([]uint64, len(ids))
	var buf [16]byte
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(uint32(id))|0xA5A5<<48)
		hashes[i] = hash(buf[:8])
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		for _, vnodes := range []int{1, 64, 512} {
			ring := NewRing(shards, vnodes)
			points := make([]ringPoint, 0, shards*vnodes)
			for s := 0; s < shards; s++ {
				for v := 0; v < vnodes; v++ {
					binary.LittleEndian.PutUint64(buf[:8], uint64(s)+0x9E3779B97F4A7C15)
					binary.LittleEndian.PutUint64(buf[8:], uint64(v))
					points = append(points, ringPoint{hash: hash(buf[:]), shard: int32(s)})
				}
			}
			sort.Slice(points, func(i, j int) bool {
				if points[i].hash != points[j].hash {
					return points[i].hash < points[j].hash
				}
				return points[i].shard < points[j].shard
			})
			for i, p := range points {
				if ring.points[i] != p {
					t.Fatalf("%d shards x %d vnodes: point %d is %+v, want %+v", shards, vnodes, i, ring.points[i], p)
				}
			}
			for i, id := range ids {
				j := sort.Search(len(points), func(j int) bool { return points[j].hash >= hashes[i] })
				if j == len(points) {
					j = 0
				}
				if got, want := ring.Owner(id), int(points[j].shard); got != want {
					t.Fatalf("%d shards x %d vnodes: id %d is owned by shard %d, want %d", shards, vnodes, id, got, want)
				}
			}
		}
	}
}
