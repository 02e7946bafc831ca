package crawler

import (
	"sync"
	"time"

	"adwars/internal/chassis"
)

// The breaker's thresholds. Counting sheds rather than wall-clock time keeps
// the breaker deterministic under the accounting-only sleeper.
const (
	// failureThreshold consecutive transient failures open the breaker.
	failureThreshold = 10
	// probeAfterSheds requests are shed by the open breaker before it lets
	// one probe through (half-open).
	probeAfterSheds = 50
	// penaltyBase seeds the adaptive rate-limit penalty applied after a
	// 429-style response; penaltyMax caps it.
	penaltyBase = 100 * time.Millisecond
	penaltyMax  = 5 * time.Second
)

// Breaker is the gate between the crawl workers and the archive, shared by
// all workers of a crawl (and, in the retrospective study, across the 60
// monthly crawls): a circuit breaker (chassis.Breaker, probing after a count
// of sheds) with an AIMD rate-limit penalty beside it. During an archive
// outage it sheds load instead of hammering: after failureThreshold
// consecutive transient failures every request is rejected at the gate
// until a half-open probe succeeds.
//
// Shed requests do not consume the per-site retry budget — the worker
// waits and re-asks the gate — so outages delay the crawl but never turn
// sites into StatusError. Safe for concurrent use.
type Breaker struct {
	metrics *Metrics
	circuit *chassis.Breaker

	mu      sync.Mutex
	penalty time.Duration // adaptive rate-limit penalty (AIMD)
}

// NewBreaker builds a breaker; metrics may be nil.
func NewBreaker(m *Metrics) *Breaker {
	return &Breaker{metrics: m,
		circuit: chassis.NewBreaker(failureThreshold, chassis.AfterSheds(probeAfterSheds))}
}

// Allow reports whether a request may proceed. While open it sheds the
// caller (who should wait and retry the gate); every probeAfterSheds
// rejections it admits a single probe instead.
func (b *Breaker) Allow() bool {
	ok := b.circuit.Allow()
	if !ok && b.metrics != nil {
		b.metrics.BreakerSheds.Add(1)
	}
	return ok
}

// Success records a healthy archive response: it closes the breaker,
// resets the failure streak, and decays the rate-limit penalty.
func (b *Breaker) Success() {
	b.circuit.Success()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.penalty > 0 {
		b.penalty /= 2
		if b.penalty < time.Millisecond {
			b.penalty = 0
		}
	}
}

// Failure records a transient archive failure. Enough consecutive failures
// open the breaker; a failed half-open probe re-opens it.
func (b *Breaker) Failure() {
	if b.circuit.Failure() && b.metrics != nil {
		b.metrics.BreakerOpens.Add(1)
	}
}

// OnRateLimit grows the adaptive penalty multiplicatively (at least to the
// archive's Retry-After hint); Success decays it. The penalty is the
// "adaptive rate limiter" half of the gate: it slows every worker down
// while the archive is telling us to back off.
func (b *Breaker) OnRateLimit(hint time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.penalty * 2
	if p == 0 {
		p = penaltyBase
	}
	if hint > p {
		p = hint
	}
	if p > penaltyMax {
		p = penaltyMax
	}
	b.penalty = p
}

// Penalty returns the current adaptive pacing delay.
func (b *Breaker) Penalty() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.penalty
}

// State names the breaker state, for logs and tests.
func (b *Breaker) State() string { return b.circuit.State() }
