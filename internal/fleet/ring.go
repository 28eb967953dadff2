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
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

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
	// first[b] is the index of the first point whose hash's top bucketBits
	// bits are b or more, and first[len(first)-1] is len(points): the points
	// of bucket b are points[first[b]:first[b+1]]. Below the cap there are
	// more than twice as many buckets as points, so Owner compares against
	// half a point on average.
	first      []int32
	bucketBits uint

	// owners[id] is Owner(id) for the ids [0, len(owners)): the ring's
	// ownership table, one byte an app, which OwnsFunc reads and extends
	// (ownerOf). A published table is never written again; a longer one is
	// built under grow and swapped in whole. Rings of more than 256 shards
	// keep none.
	owners atomic.Pointer[[]uint8]
	grow   sync.Mutex
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// maxBucketBits caps the bucket table at 256 KiB.
const maxBucketBits = 16

// minOwnerTable is the length an ownership table starts at.
const minOwnerTable = 4096

// NewRing builds the ring for a fleet of shards nodes with vnodes virtual
// points per shard (<=0 uses DefaultVnodes). shards must be >= 1.
func NewRing(shards, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv1a(fnv1a(fnvOffset, uint64(s)+0x9E3779B97F4A7C15), uint64(v))
			r.points = append(r.points, ringPoint{hash: rng.Mix64(h), shard: int32(s)})
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
	r.bucketBits = min(uint(bits.Len(uint(len(r.points))))+1, maxBucketBits)
	r.first = make([]int32, 1<<r.bucketBits+1)
	p := 0
	for b := range r.first {
		for p < len(r.points) && r.points[p].hash>>(64-r.bucketBits) < uint64(b) {
			p++
		}
		r.first[b] = int32(p)
	}
	return r
}

// Shards returns the fleet size the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning global app ID id: the successor
// point of the ID's hash, wrapping at the top of the ring. Every point of
// an earlier bucket hashes below the ID and every point of a later one
// above it, so the successor is in the ID's bucket or is the first point
// after it.
func (r *Ring) Owner(id int32) int {
	h := rng.Mix64(fnv1a(fnvOffset, uint64(uint32(id))|0xA5A5<<48))
	b := h >> (64 - r.bucketBits)
	i, end := int(r.first[b]), int(r.first[b+1])
	for i < end && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

// OwnsFunc returns the ownership predicate for one shard — the closure a
// shard hands to marketsim.NewPartitioner. Every shard built over one ring
// reads its ownership table, so a fleet's partitioners hash each app once
// between them.
func (r *Ring) OwnsFunc(shard int) func(int32) bool {
	return func(id int32) bool { return r.ownerOf(id) == shard }
}

// ownerOf is Owner(id), read from the ownership table. The id just past
// the table's end doubles it (to minOwnerTable at first): partitioners scan
// ids in order as apps arrive, so each is hashed once. Any other id outside
// the table, a negative one or one beyond an id no scan has reached, is
// hashed on its own and grows nothing.
func (r *Ring) ownerOf(id int32) int {
	if r.shards > 1<<8 {
		return r.Owner(id)
	}
	var owners []uint8
	if t := r.owners.Load(); t != nil {
		owners = *t
	}
	if uint(id) < uint(len(owners)) {
		return int(owners[id])
	}
	if int(id) != len(owners) {
		return r.Owner(id)
	}
	r.grow.Lock()
	defer r.grow.Unlock()
	if t := r.owners.Load(); t != nil {
		owners = *t
	}
	if int(id) >= len(owners) {
		grown := make([]uint8, max(2*len(owners), minOwnerTable))
		copy(grown, owners)
		for i := len(owners); i < len(grown); i++ {
			grown[i] = uint8(r.Owner(int32(i)))
		}
		r.owners.Store(&grown)
		owners = grown
	}
	return int(owners[id])
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds v's eight bytes, least significant first, into the FNV-1a
// hash h.
//
// Raw FNV-64a hashes of near-identical short inputs — consecutive app IDs,
// vnode indices — form low-rank lattices (each differing byte contributes a
// fixed multiple of a power of the FNV prime), and two such lattices
// interleave on the ring with systematic bias: at 2 shards x 512 vnodes the
// raw hashes parked 80% of a uniform catalog on one shard. So every ring
// hash goes through the splitmix64 finalizer (rng.Mix64), whose
// shift-xor-multiply cascade breaks the lattice structure so ownership
// tracks arc length.
func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
