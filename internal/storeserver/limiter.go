package storeserver

import (
	"sync"
	"time"
)

// limiterShards splits the per-client token buckets across independently
// locked shards so concurrent clients (the loadgen's many virtual users)
// do not serialize on one mutex. Must be a power of two.
const limiterShards = 16

// idleTTL is how long an idle client's bucket survives before a sweep
// reclaims it; a bucket idle that long has refilled to full burst anyway,
// so dropping it is behaviorally invisible.
const idleTTL = 2 * time.Minute

type bucket struct {
	tokens float64
	last   time.Time
}

type limiterShard struct {
	mu        sync.Mutex
	buckets   map[string]*bucket
	lastSweep time.Time
}

// limiter is a sharded per-key token-bucket rate limiter with idle-bucket
// eviction. Each allow call touches exactly one shard; eviction piggybacks
// on allow so no background goroutine is needed.
type limiter struct {
	rate  float64
	burst float64
	ttl   time.Duration

	shards [limiterShards]limiterShard
}

func newLimiter(rate float64, burst int, ttl time.Duration) *limiter {
	// A bucket that can never hold one token refuses every request: that
	// is an outage, not a limit.
	l := &limiter{rate: rate, burst: float64(max(burst, 1)), ttl: ttl}
	for i := range l.shards {
		l.shards[i].buckets = map[string]*bucket{}
	}
	return l
}

// shardFor hashes key with FNV-1a; inlined to avoid the hash.Hash
// allocation on the request path.
func shardFor(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (limiterShards - 1)
}

// allow reports whether the client identified by key may proceed at now,
// consuming one token if so.
func (l *limiter) allow(key string, now time.Time) bool {
	ok, _ := l.allowWait(key, now)
	return ok
}

// allowWait is allow plus, on denial, how long until the bucket refills to
// one token — the honest Retry-After value the API reports.
func (l *limiter) allowWait(key string, now time.Time) (bool, time.Duration) {
	sh := &l.shards[shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.lastSweep.IsZero() {
		sh.lastSweep = now
	} else if now.Sub(sh.lastSweep) >= l.ttl {
		for k, b := range sh.buckets {
			if now.Sub(b.last) >= l.ttl {
				delete(sh.buckets, k)
			}
		}
		sh.lastSweep = now
	}
	b, ok := sh.buckets[key]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		sh.buckets[key] = b
	}
	// Concurrent callers sample time.Now before taking the shard lock, so
	// a request can arrive holding a timestamp older than the bucket's
	// last refill. A negative elapsed would *drain* tokens (catastrophic
	// at high rates); credit time only when it moved forward.
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
		if wait <= 0 {
			wait = time.Millisecond
		}
		return false, wait
	}
	b.tokens--
	return true, 0
}

// size returns the total tracked buckets across shards (telemetry, tests).
func (l *limiter) size() int {
	n := 0
	for i := range l.shards {
		l.shards[i].mu.Lock()
		n += len(l.shards[i].buckets)
		l.shards[i].mu.Unlock()
	}
	return n
}
