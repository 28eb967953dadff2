package resilient

import (
	"sync"
	"time"

	"planetapps/internal/metrics"
)

// The per-host circuit breaker's fixed tuning.
const (
	// breakerFailures consecutive failures open the circuit. Consecutive —
	// not a ratio — so a host that still answers some requests through a
	// fault storm keeps its circuit closed and only a genuinely dead host
	// trips it.
	breakerFailures = 8
	// breakerCooldown is how long an open circuit rejects before it admits
	// its one half-open probe.
	breakerCooldown = 400 * time.Millisecond
)

type breakerState uint8

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

// Breaker is one host's circuit: closed (requests flow, consecutive
// failures counted) -> open (requests rejected until breakerCooldown
// elapses) -> half-open (one probe flies; its success closes the circuit,
// its failure re-opens it). Safe for concurrent use.
type Breaker struct {
	mu      sync.Mutex
	clock   Clock
	state   breakerState
	fails   int
	opened  time.Time
	probing bool // the half-open probe is in flight
	opens   int64
	// onOpen, when set, mirrors open transitions into a shared metrics
	// counter (wired by breakerSet).
	onOpen *metrics.Counter
}

// NewBreaker creates a closed breaker. A nil clock uses the wall clock.
func NewBreaker(clock Clock) *Breaker {
	if clock == nil {
		clock = realClock{}
	}
	return &Breaker{clock: clock}
}

// Token resolves one admitted request's outcome. Exactly one of its
// methods must be called.
type Token struct {
	b     *Breaker
	probe bool
	done  bool
}

// Try asks to admit a request. When ok, the returned token must be
// resolved with Success, Failure, or Cancel. When not ok, retryIn is how
// long until the circuit will next admit a probe.
func (b *Breaker) Try() (t *Token, retryIn time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock.Now()
	switch b.state {
	case stClosed:
		return &Token{b: b}, 0, true
	case stOpen:
		if wait := breakerCooldown - now.Sub(b.opened); wait > 0 {
			return nil, wait, false
		}
		b.state = stHalfOpen
		b.probing = true
		return &Token{b: b, probe: true}, 0, true
	default: // half-open
		if !b.probing {
			b.probing = true
			return &Token{b: b, probe: true}, 0, true
		}
		// The probe is in flight; check back shortly.
		return nil, breakerCooldown / 8, false
	}
}

// Success reports the request completed cleanly.
func (t *Token) Success() { t.resolve(outcomeSuccess) }

// Failure reports the request failed in a way that implicates the host
// (transport error, 5xx, damaged body).
func (t *Token) Failure() { t.resolve(outcomeFailure) }

// Cancel reports the request never ran to a verdict (context canceled);
// the breaker's failure accounting is untouched but any probe slot is
// returned.
func (t *Token) Cancel() { t.resolve(outcomeCancel) }

type outcome uint8

const (
	outcomeSuccess outcome = iota
	outcomeFailure
	outcomeCancel
)

func (t *Token) resolve(o outcome) {
	if t == nil || t.done {
		return
	}
	t.done = true
	b := t.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.probe {
		// The half-open probe: only its verdict moves the circuit out of
		// half-open, so the circuit is still there. A cancel just frees
		// the slot for the next probe.
		b.probing = false
		switch o {
		case outcomeSuccess:
			b.state = stClosed
			b.fails = 0
		case outcomeFailure:
			b.state = stOpen
			b.opened = b.clock.Now()
			b.markOpen()
		}
		return
	}
	if b.state != stClosed {
		return // a straggler from before the circuit opened
	}
	switch o {
	case outcomeSuccess:
		b.fails = 0
	case outcomeFailure:
		b.fails++
		if b.fails >= breakerFailures {
			b.state = stOpen
			b.opened = b.clock.Now()
			b.markOpen()
			b.fails = 0
		}
	}
}

// markOpen tallies an open transition. Callers hold b.mu.
func (b *Breaker) markOpen() {
	b.opens++
	if b.onOpen != nil {
		b.onOpen.Inc()
	}
}

// breakerSet lazily creates one Breaker per host.
type breakerSet struct {
	mu     sync.Mutex
	clock  Clock
	onOpen *metrics.Counter
	m      map[string]*Breaker
}

func newBreakerSet(clock Clock, onOpen *metrics.Counter) *breakerSet {
	return &breakerSet{clock: clock, onOpen: onOpen, m: map[string]*Breaker{}}
}

func (s *breakerSet) forHost(host string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[host]
	if !ok {
		b = NewBreaker(s.clock)
		b.onOpen = s.onOpen
		s.m[host] = b
	}
	return b
}
