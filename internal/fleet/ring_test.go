package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"
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

// TestOwnsFuncAgreesWithOwnerAsTheTableGrows holds the ownership table to
// Owner: four goroutines, one a shard as a fleet's partitioners are, scan
// ids upward through six doublings of one ring's table, each also reading
// back an id below its own, a negative id and an id past every scan (both
// hashed on their own), and OwnsFunc(k)(id) must be Owner(id) == k for
// every one. The table then ends at the last id scanned, doubled to it
// and no further, and is Owner's entry for entry.
func TestOwnsFuncAgreesWithOwnerAsTheTableGrows(t *testing.T) {
	const shards, ids = 4, 64 * minOwnerTable
	ring := NewRing(shards, 0)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			owns := ring.OwnsFunc(k)
			r := rng.New(uint64(k))
			check := func(id int32) bool {
				if got, want := owns(id), ring.Owner(id) == k; got != want {
					t.Errorf("shard %d: OwnsFunc(%d) = %v, Owner is %d", k, id, got, ring.Owner(id))
					return false
				}
				return true
			}
			for id := int32(0); id < ids; id++ {
				ok := check(id) && check(int32(r.Uint64n(uint64(id)+1))) &&
					check(-1-id) && check(ids+int32(r.Uint64n(1<<30)))
				if !ok {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	owners := *ring.owners.Load()
	if len(owners) != ids {
		t.Fatalf("table holds %d ids after a scan of %d", len(owners), ids)
	}
	for id, o := range owners {
		if int(o) != ring.Owner(int32(id)) {
			t.Fatalf("table says id %d is shard %d's, Owner says %d", id, o, ring.Owner(int32(id)))
		}
	}
}
