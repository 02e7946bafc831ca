package chassis

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (traffic flows,
// failures counted), open (traffic refused until the probe rule relents),
// half-open (exactly one probe in flight decides reopen vs close).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// ProbeRule decides when an open circuit admits its probe: called each time
// the circuit opens, it returns the question put to that open period's
// callers, under the breaker's lock. The first true is the probe.
type ProbeRule func() (admit func() bool)

// AfterSheds admits the n-th caller an open circuit sees as the probe. It
// reads no clock, so a crawl whose waits are only accounted, never slept
// (the crawler's pause), recovers on the same schedule every run.
func AfterSheds(n int) ProbeRule {
	return func() func() bool {
		seen := 0
		return func() bool {
			seen++
			return seen >= n
		}
	}
}

// AfterCooldown admits the first caller that arrives once the circuit has
// been open for d on the clock now.
func AfterCooldown(d time.Duration, now func() time.Time) ProbeRule {
	return func() func() bool {
		opened := now()
		return func() bool { return now().Sub(opened) >= d }
	}
}

// Breaker is a circuit breaker driven by the outcomes of real traffic:
// threshold consecutive failures open it, an open circuit refuses callers
// until its ProbeRule admits one probe, and that probe's outcome closes the
// circuit or opens it afresh. Safe for concurrent use.
type Breaker struct {
	threshold int
	probe     ProbeRule

	mu    sync.Mutex
	state breakerState
	fails int         // consecutive failures while closed
	admit func() bool // the open period's probe question
}

// NewBreaker builds a closed breaker.
func NewBreaker(threshold int, probe ProbeRule) *Breaker {
	return &Breaker{threshold: threshold, probe: probe}
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
		if b.admit() {
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
	b.admit = b.probe()
	return true
}

// State names the state, for metrics and logs.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return [...]string{"closed", "open", "half-open"}[b.state]
}
