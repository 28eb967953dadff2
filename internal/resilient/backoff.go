package resilient

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"planetapps/internal/apiwire"
)

// fullJitter returns the attempt-th retry delay under the "full jitter"
// policy: uniform [0, min(maxBackoff, base<<attempt)). Decorrelating
// retries this way spreads a fleet of crawlers that all hit the same fault
// burst, so they do not re-arrive in lockstep and re-trigger the storm.
func fullJitter(attempt int, base time.Duration, rng *prng) time.Duration {
	ceil := base
	for i := 0; i < attempt && ceil < maxBackoff; i++ {
		ceil *= 2
	}
	return time.Duration(rng.float64() * float64(min(ceil, maxBackoff)))
}

// retryAfterHint extracts the server's requested wait from a 429/503
// response: the API error envelope's retry_after_ms when the body carries
// one (millisecond precision), else the Retry-After header (whole seconds
// or an HTTP date). Returns 0 when the server gave no hint.
func retryAfterHint(status int, hdr http.Header, body []byte, now time.Time) time.Duration {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return 0
	}
	if len(body) > 0 && body[0] == '{' {
		var env apiwire.ErrorJSON
		if json.Unmarshal(body, &env) == nil && env.Error.RetryAfterMS > 0 {
			return time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		}
	}
	ra := hdr.Get("Retry-After")
	if ra == "" {
		return 0
	}
	if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(ra); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// prng is a tiny lock-free xorshift stream for retry jitter; determinism
// of the *fault* process lives in faultinject, here the seed just makes
// reruns reproducible in aggregate.
type prng struct{ state atomic.Uint64 }

func newPRNG(seed uint64) *prng {
	p := &prng{}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	p.state.Store(seed)
	return p
}

func (p *prng) next() uint64 {
	for {
		old := p.state.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if p.state.CompareAndSwap(old, x) {
			return x
		}
	}
}

func (p *prng) float64() float64 { return float64(p.next()>>11) / (1 << 53) }
