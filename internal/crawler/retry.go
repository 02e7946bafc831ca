package crawler

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

const (
	// backoffMultiplier grows the delay per retry.
	backoffMultiplier = 2
	// maxBackoff caps one backoff.
	maxBackoff = 30 * time.Second
)

// RetryPolicy controls per-request retry of transient archive failures:
// exponential backoff with deterministic jitter, capped per-domain by an
// attempt budget.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per request, first try included
	// (default 8). It must exceed the archive's worst-case consecutive
	// failure count (wayback.FaultConfig.MaxFailuresPerRequest) for
	// transients to always resolve.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 250ms).
	BaseDelay time.Duration
	// Jitter is the fraction of each delay that is randomized, in [0,1]
	// (default 0.5): the delay is scaled by [1-Jitter/2, 1+Jitter/2).
	Jitter float64
}

// DefaultRetryPolicy mirrors common crawl-hardening practice: 8 attempts,
// 250ms base, doubling, 30s cap, 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   250 * time.Millisecond,
		Jitter:      0.5,
	}
}

// withDefaults fills unset knobs so a partially-specified policy works.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = d.Jitter
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
	d := float64(p.BaseDelay) * math.Pow(backoffMultiplier, float64(retry-1))
	d = min(d, float64(maxBackoff))
	d *= 1 - p.Jitter/2 + p.Jitter*jitterFloat(domain, retry, seed)
	d = min(d, float64(maxBackoff))
	return time.Duration(d)
}

// jitterFloat maps (domain, retry, seed) to [0,1) deterministically.
func jitterFloat(domain string, retry int, seed int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "backoff|%s|%d|%d", domain, retry, seed)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// SleepFunc pauses between retries, returning ctx.Err() early on
// cancellation.
type SleepFunc func(ctx context.Context, d time.Duration) error

// NoSleep is the default SleepFunc: it observes cancellation but does not
// wait. Against the in-memory simulated archive backoff exists to be
// measured (Metrics.Backoff), not to pace a real service, so crawls stay
// fast while exercising the exact retry schedule.
func NoSleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
