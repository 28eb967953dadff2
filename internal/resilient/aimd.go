package resilient

import (
	"context"
	"sync"
)

// The adaptive concurrency limiter is additive increase on success,
// multiplicative decrease on pressure (429s and timeouts): the classic TCP
// congestion discipline applied to request concurrency. The crawler starts
// at half its ceiling and backs off when the store signals overload,
// instead of hammering a struggling endpoint with its full parallelism.
const (
	// aimdMin is the concurrency floor — progress never stops.
	aimdMin = 1
	// aimdDecrease is the multiplicative factor applied on pressure.
	aimdDecrease = 0.7
)

// aimd gates request admission at a moving concurrency limit.
type aimd struct {
	mu        sync.Mutex
	ceiling   float64
	limit     float64
	inflight  int
	waiters   []chan struct{}
	decreases int64
}

// newAIMD starts a limiter with the given ceiling (>= 1) at half of it, at
// least aimdMin.
func newAIMD(ceiling int) *aimd {
	a := &aimd{ceiling: float64(ceiling), limit: float64(ceiling) / 2}
	if a.limit < aimdMin {
		a.limit = aimdMin
	}
	return a
}

// acquire blocks until an admission slot frees or ctx ends.
func (a *aimd) acquire(ctx context.Context) error {
	for {
		a.mu.Lock()
		if a.inflight < int(a.limit) {
			a.inflight++
			a.mu.Unlock()
			return nil
		}
		ch := make(chan struct{}, 1)
		a.waiters = append(a.waiters, ch)
		a.mu.Unlock()
		select {
		case <-ctx.Done():
			a.drop(ch)
			return ctx.Err()
		case <-ch:
		}
	}
}

// drop removes an abandoned waiter registration.
func (a *aimd) drop(ch chan struct{}) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, w := range a.waiters {
		if w == ch {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return
		}
	}
}

// release returns a slot, adjusting the limit: success grows it by
// 1/limit (one unit per round-trip of the whole window, the additive
// increase), pressure shrinks it multiplicatively.
func (a *aimd) release(success, pressure bool) {
	a.mu.Lock()
	a.inflight--
	if pressure {
		a.limit *= aimdDecrease
		if a.limit < aimdMin {
			a.limit = aimdMin
		}
		a.decreases++
	} else if success {
		a.limit += 1 / a.limit
		if a.limit > a.ceiling {
			a.limit = a.ceiling
		}
	}
	free := int(a.limit) - a.inflight
	for free > 0 && len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		ch <- struct{}{}
		free--
	}
	a.mu.Unlock()
}

// Limit returns the current concurrency limit (telemetry, tests).
func (a *aimd) Limit() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

func (a *aimd) Decreases() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.decreases
}
