// Package fleet shards the synthetic appstore across N store nodes behind
// a consistent-hash gateway — the serving-side mirror of the paper's own
// measurement architecture (Figure 1: ~100 proxies fanning out over 4
// stores). Each shard runs
// the same deterministic market simulation and serves only the partition
// of the catalog it owns (marketsim.Partitioner); the gateway routes
// single-app requests to their owner, stitches the cursor-paginated
// listing across shards with a deterministic k-way merge on global app
// ID, aggregates /stats and /metrics, and coordinates day-rolls as a
// fleet-wide two-phase epoch swap so no client ever observes a mixed-day
// catalog — not even mid-roll.
package fleet

import (
	"hash/fnv"
	"sort"

	"planetapps/internal/rng"
)

// DefaultVnodes is the virtual-node count per shard: enough for ±a few
// percent ownership imbalance at 4 shards, cheap enough that ring
// construction stays trivial.
const DefaultVnodes = 64

// Ring is a consistent-hash ring mapping global app IDs onto shard
// indices. It is a pure function of (shards, vnodes): every process that
// builds a ring with the same parameters — each shard's partitioner, the
// gateway, a test — agrees on ownership, with no coordination.
//
// Consistent hashing (rather than a modulus) is what keeps a future
// shard-count change from remapping nearly every app: growing N by one
// moves only ~1/N of the catalog. Cursors are still invalidated on a
// topology change (their packed per-shard anchors stop lining up), which
// the gateway reports with a clean bad_cursor envelope.
type Ring struct {
	shards int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// NewRing builds the ring for a fleet of shards nodes with vnodes virtual
// points per shard (<=0 uses DefaultVnodes). shards must be >= 1.
func NewRing(shards, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	var buf [16]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			putUint64(buf[0:8], uint64(s)+0x9E3779B97F4A7C15)
			putUint64(buf[8:16], uint64(v))
			r.points = append(r.points, ringPoint{hash: fnvHash(buf[:]), shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare) break on shard index so every process
		// sorts identically.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the fleet size the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning global app ID id: the successor
// point of the ID's hash, wrapping at the top of the ring.
func (r *Ring) Owner(id int32) int {
	var buf [8]byte
	putUint64(buf[:], uint64(uint32(id))|0xA5A5<<48)
	h := fnvHash(buf[:])
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

// OwnsFunc returns the ownership predicate for one shard — the closure a
// shard hands to marketsim.NewPartitioner.
func (r *Ring) OwnsFunc(shard int) func(int32) bool {
	return func(id int32) bool { return r.Owner(id) == shard }
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func fnvHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck
	// Raw FNV-64a hashes of near-identical short inputs — consecutive app
	// IDs, vnode indices — form low-rank lattices (each differing byte
	// contributes a fixed multiple of a power of the FNV prime), and two such
	// lattices interleave on the ring with systematic bias: at 2 shards x 512
	// vnodes the raw hashes parked 80% of a uniform catalog on one shard. The
	// splitmix64 finalizer's shift-xor-multiply cascade breaks the lattice
	// structure so ownership tracks arc length.
	return rng.Mix64(h.Sum64())
}
