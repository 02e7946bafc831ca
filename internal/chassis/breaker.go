package chassis

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (traffic flows,
// failures counted), open (traffic refused for the cooldown), half-open
// (exactly one probe in flight decides reopen vs close).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a circuit breaker driven by the outcomes of real traffic:
// threshold consecutive failures open it, an open circuit refuses callers
// until it has been open for cooldown on the clock now, then admits the
// first caller as its probe, and that probe's outcome closes the circuit or
// opens it afresh. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu     sync.Mutex
	state  breakerState
	fails  int       // consecutive failures while closed
	opened time.Time // when the circuit last opened
}

// NewBreaker builds a closed breaker.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may proceed. While a probe is in flight
// every other caller is refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.opened) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
	}
	return false
}

// Success records a completed request: it closes the circuit, whatever its
// state, and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// Failure records a failed request and reports whether it opened the circuit
// (the streak completed, or the probe failed). A straggler admitted before
// the circuit opened changes nothing.
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if b.fails++; b.fails < b.threshold {
			return false
		}
	case breakerOpen:
		return false
	}
	b.state = breakerOpen
	b.fails = 0
	b.opened = b.now()
	return true
}

// State names the state, for metrics and logs.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return [...]string{"closed", "open", "half-open"}[b.state]
}
