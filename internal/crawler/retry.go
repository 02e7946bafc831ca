package crawler

import (
	"math"
	"time"

	"adwars/internal/stats"
)

const (
	// defaultMaxAttempts is the attempt budget of a policy that sets none.
	defaultMaxAttempts = 8
	// baseDelay is the backoff before the first retry.
	baseDelay = 250 * time.Millisecond
	// backoffMultiplier grows the delay per retry.
	backoffMultiplier = 2
	// maxBackoff caps one backoff.
	maxBackoff = 30 * time.Second
	// jitter is the fraction of each delay that is randomized: the delay is
	// scaled by [1-jitter/2, 1+jitter/2).
	jitter = 0.5
)

// RetryPolicy controls per-request retry of transient archive failures:
// exponential backoff with deterministic jitter (250ms base, doubling, 30s
// cap, 50% jitter), capped per-domain by an attempt budget.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per request, first try included
	// (default 8). It must exceed the archive's worst-case consecutive
	// failure count (wayback.FaultConfig.MaxFailuresPerRequest) for
	// transients to always resolve.
	MaxAttempts int
}

// withDefaults fills an unset attempt budget.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	return p
}

// Delay returns the backoff before retry number `retry` (1-based: the wait
// after the retry-th failure) of a request for domain. The jitter is a
// deterministic hash of (domain, retry, seed), so a re-run reproduces the
// exact backoff schedule — the property the checkpoint-resume equivalence
// tests rely on.
func (p RetryPolicy) Delay(domain string, retry int, seed int64) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := float64(baseDelay) * math.Pow(backoffMultiplier, float64(retry-1))
	d = min(d, float64(maxBackoff))
	d *= 1 - jitter/2 + jitter*stats.HashFloat("backoff", domain, int64(retry), seed)
	d = min(d, float64(maxBackoff))
	return time.Duration(d)
}
