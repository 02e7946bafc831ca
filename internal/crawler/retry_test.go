package crawler

import (
	"context"
	"testing"
	"time"
)

func TestRetryPolicyDefaults(t *testing.T) {
	if p := (RetryPolicy{}).withDefaults(); p.MaxAttempts != 8 {
		t.Fatalf("withDefaults() = %+v, want 8 attempts", p)
	}
	// An explicit budget survives.
	if p := (RetryPolicy{MaxAttempts: 3}).withDefaults(); p.MaxAttempts != 3 {
		t.Fatalf("explicit budget overridden: %+v", p)
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	var p RetryPolicy
	for retry := 1; retry <= 8; retry++ {
		d1 := p.Delay("example.com", retry, 42)
		d2 := p.Delay("example.com", retry, 42)
		if d1 != d2 {
			t.Fatalf("retry %d: %v != %v under same seed", retry, d1, d2)
		}
	}
	// Different seeds and different domains jitter differently somewhere
	// in the schedule.
	varies := func(other func(int) time.Duration) bool {
		for retry := 1; retry <= 8; retry++ {
			if p.Delay("example.com", retry, 42) != other(retry) {
				return true
			}
		}
		return false
	}
	if !varies(func(r int) time.Duration { return p.Delay("example.com", r, 43) }) {
		t.Error("seed does not influence jitter")
	}
	if !varies(func(r int) time.Duration { return p.Delay("other.com", r, 42) }) {
		t.Error("domain does not influence jitter")
	}
}

func TestBackoffScheduleShape(t *testing.T) {
	var p RetryPolicy
	for retry := 1; retry <= 20; retry++ {
		d := p.Delay("example.com", retry, 1)
		lo := time.Duration(float64(baseDelay) * (1 - jitter/2))
		if d < lo {
			t.Fatalf("retry %d: delay %v below jitter floor %v", retry, d, lo)
		}
		if d > maxBackoff {
			t.Fatalf("retry %d: delay %v exceeds cap %v", retry, d, maxBackoff)
		}
	}
	// Exponential growth: the ceiling of retry n+1 exceeds retry n's
	// floor by the multiplier until the cap bites.
	d1 := p.Delay("example.com", 1, 1)
	d5 := p.Delay("example.com", 5, 1)
	if d5 <= d1 {
		t.Fatalf("no growth: retry1=%v retry5=%v", d1, d5)
	}
}

// TestPauseAccountsBackoff: a retry's pause adds its delay to
// Metrics.BackoffNanos without waiting it out, and reports cancellation.
func TestPauseAccountsBackoff(t *testing.T) {
	var m Metrics
	c := &monthCrawler{cfg: Config{Metrics: &m}}
	if err := c.pause(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(m.BackoffNanos.Load()); got != time.Hour {
		t.Fatalf("backoff accounted %v, want 1h", got)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.pause(cancelled, 0); err == nil {
		t.Fatal("pause must observe cancellation")
	}
}
