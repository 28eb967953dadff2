package resilient

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock; Sleep advances it instantly so
// state-machine tests run in zero wall time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.Advance(d)
	return nil
}

// Opens returns how many times the circuit has opened.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

func mustTry(t *testing.T, b *Breaker) *Token {
	t.Helper()
	tk, _, ok := b.Try()
	if !ok {
		t.Fatalf("Try rejected; want admitted")
	}
	return tk
}

// fail resolves n admitted requests as failures.
func fail(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustTry(t, b).Failure()
	}
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)

	// Interleaved successes reset the consecutive counter: no trip.
	for i := 0; i < 10; i++ {
		fail(t, b, breakerFailures-1)
		mustTry(t, b).Success()
	}
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("circuit opened despite interleaved successes")
	} else {
		tk, _, _ := b.Try()
		tk.Cancel()
	}

	// breakerFailures consecutive failures trip it.
	fail(t, b, breakerFailures)
	if _, retryIn, ok := b.Try(); ok {
		t.Fatalf("circuit still admitting after %d consecutive failures", breakerFailures)
	} else if retryIn <= 0 || retryIn > breakerCooldown {
		t.Fatalf("retryIn = %v, want (0, %v]", retryIn, breakerCooldown)
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}
}

func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)
	fail(t, b, breakerFailures)

	// Cooldown not yet elapsed: still rejecting.
	clk.Advance(breakerCooldown / 2)
	if _, _, ok := b.Try(); ok {
		t.Fatalf("admitted during cooldown")
	}

	// Cooldown elapsed: exactly one probe flies; concurrent tries rejected.
	clk.Advance(breakerCooldown/2 + time.Millisecond)
	probe := mustTry(t, b)
	if _, retryIn, ok := b.Try(); ok {
		t.Fatalf("second probe admitted while first in flight")
	} else if retryIn <= 0 {
		t.Fatalf("half-open rejection retryIn = %v, want > 0", retryIn)
	}

	probe.Success()
	// Closed again: requests flow and failure accounting restarts fresh.
	fail(t, b, breakerFailures-1)
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("circuit not closed after probe success")
	} else {
		tk, _, _ := b.Try()
		tk.Cancel()
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)
	fail(t, b, breakerFailures)

	clk.Advance(breakerCooldown)
	probe := mustTry(t, b)
	probe.Failure()
	if _, _, ok := b.Try(); ok {
		t.Fatalf("circuit admitting right after failed probe")
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("Opens() = %d, want 2 (initial trip + probe failure)", got)
	}

	// The re-opened circuit recovers the same way.
	clk.Advance(breakerCooldown)
	mustTry(t, b).Success()
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("circuit not closed after second probe success")
	} else {
		tk, _, _ := b.Try()
		tk.Cancel()
	}
}

func TestBreakerProbeCancelReturnsSlot(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)
	fail(t, b, breakerFailures)

	clk.Advance(breakerCooldown)
	probe := mustTry(t, b)
	probe.Cancel()
	// The canceled probe freed its slot: another probe is admitted without
	// waiting out a new cooldown, and the circuit did not re-open.
	next := mustTry(t, b)
	next.Success()
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("circuit not closed after probe success following cancel")
	} else {
		tk, _, _ := b.Try()
		tk.Cancel()
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}
}

func TestBreakerStragglerDoesNotCorruptState(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)

	straggler := mustTry(t, b)  // admitted while closed
	fail(t, b, breakerFailures) // circuit opens

	// The straggler resolves after the trip: its failure must not count
	// against the (future) half-open or re-closed state.
	straggler.Failure()

	clk.Advance(breakerCooldown)
	probe := mustTry(t, b)
	probe.Success()
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("straggler failure corrupted post-recovery state")
	} else {
		tk, _, _ := b.Try()
		tk.Cancel()
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}
}

func TestBreakerTokenResolveIsIdempotent(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(clk)
	fail(t, b, breakerFailures-2)
	tk := mustTry(t, b)
	tk.Failure()
	tk.Failure() // double resolve: ignored
	tk.Failure()
	if _, _, ok := b.Try(); !ok {
		t.Fatalf("double-resolved token tripped the circuit (fails counted twice)")
	}
	var nilTok *Token
	nilTok.Success() // nil token: no-op, used when the breaker is disabled
}
