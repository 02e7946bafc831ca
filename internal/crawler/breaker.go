package crawler

import (
	"sync"
	"time"

	"adwars/internal/chassis"
)

// BreakerConfig parameterizes the shared circuit breaker / adaptive rate
// limiter that sits between the crawl workers and the archive.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive transient failures open
	// the breaker (default 10).
	FailureThreshold int
	// ProbeAfterSheds is how many requests the open breaker sheds before
	// letting one probe through (half-open). Counting sheds rather than
	// wall-clock time keeps the breaker deterministic under the
	// accounting-only sleeper (default 50).
	ProbeAfterSheds int
	// PenaltyBase seeds the adaptive rate-limit penalty applied after a
	// 429-style response (default 100ms).
	PenaltyBase time.Duration
	// PenaltyMax caps the adaptive penalty (default 5s).
	PenaltyMax time.Duration
}

// DefaultBreakerConfig returns the standard thresholds.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		FailureThreshold: 10,
		ProbeAfterSheds:  50,
		PenaltyBase:      100 * time.Millisecond,
		PenaltyMax:       5 * time.Second,
	}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = d.FailureThreshold
	}
	if c.ProbeAfterSheds <= 0 {
		c.ProbeAfterSheds = d.ProbeAfterSheds
	}
	if c.PenaltyBase <= 0 {
		c.PenaltyBase = d.PenaltyBase
	}
	if c.PenaltyMax <= 0 {
		c.PenaltyMax = d.PenaltyMax
	}
	return c
}

// Breaker is the gate between the crawl workers and the archive, shared by
// all workers of a crawl (and, in the retrospective study, across the 60
// monthly crawls): a circuit breaker (chassis.Breaker, probing after a count
// of sheds) with an AIMD rate-limit penalty beside it. During an archive
// outage it sheds load instead of hammering: after FailureThreshold
// consecutive transient failures every request is rejected at the gate
// until a half-open probe succeeds.
//
// Shed requests do not consume the per-site retry budget — the worker
// waits and re-asks the gate — so outages delay the crawl but never turn
// sites into StatusError. Safe for concurrent use.
type Breaker struct {
	cfg     BreakerConfig
	metrics *Metrics
	circuit *chassis.Breaker

	mu      sync.Mutex
	penalty time.Duration // adaptive rate-limit penalty (AIMD)
}

// NewBreaker builds a breaker; metrics may be nil.
func NewBreaker(cfg BreakerConfig, m *Metrics) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, metrics: m,
		circuit: chassis.NewBreaker(cfg.FailureThreshold, chassis.AfterSheds(cfg.ProbeAfterSheds))}
}

// Allow reports whether a request may proceed. While open it sheds the
// caller (who should wait and retry the gate); every ProbeAfterSheds
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
		p = b.cfg.PenaltyBase
	}
	if hint > p {
		p = hint
	}
	if p > b.cfg.PenaltyMax {
		p = b.cfg.PenaltyMax
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
