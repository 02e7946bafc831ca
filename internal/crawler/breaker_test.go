package crawler

import (
	"testing"
	"time"
)

// TestBreakerOpenHalfOpenClose: the gate books what its circuit does — every
// open, every shed — in the crawl's metrics. (The circuit itself is
// internal/chassis's, walked through every transition there under this probe
// rule.)
func TestBreakerOpenHalfOpenClose(t *testing.T) {
	var m Metrics
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, ProbeAfterSheds: 2}, &m)
	ledger := func(state string, opens, sheds int64) {
		t.Helper()
		if b.State() != state || m.BreakerOpens.Load() != opens || m.BreakerSheds.Load() != sheds {
			t.Fatalf("state %s opens %d sheds %d, want %s %d %d",
				b.State(), m.BreakerOpens.Load(), m.BreakerSheds.Load(), state, opens, sheds)
		}
	}
	if !b.Allow() {
		t.Fatal("new breaker must admit")
	}
	b.Failure()
	b.Failure()
	ledger("closed", 0, 0)
	b.Failure()
	ledger("open", 1, 0)
	// One shed, then the second gate hit is the probe, beside which a third
	// caller is shed.
	if b.Allow() || !b.Allow() || b.Allow() {
		t.Fatal("want shed, probe, shed")
	}
	ledger("half-open", 1, 2)
	b.Failure() // the probe fails: a second open
	ledger("open", 2, 2)
	if b.Allow() || !b.Allow() {
		t.Fatal("want shed, probe")
	}
	b.Success()
	ledger("closed", 2, 3)
}

func TestBreakerAdaptivePenalty(t *testing.T) {
	b := NewBreaker(BreakerConfig{PenaltyBase: 100 * time.Millisecond, PenaltyMax: time.Second}, nil)
	if b.Penalty() != 0 {
		t.Fatal("fresh breaker must not pace")
	}
	b.OnRateLimit(0)
	if b.Penalty() != 100*time.Millisecond {
		t.Fatalf("penalty = %v, want base", b.Penalty())
	}
	b.OnRateLimit(0)
	if b.Penalty() != 200*time.Millisecond {
		t.Fatalf("penalty = %v, want doubled", b.Penalty())
	}
	// A larger Retry-After hint wins.
	b.OnRateLimit(700 * time.Millisecond)
	if b.Penalty() != 700*time.Millisecond {
		t.Fatalf("penalty = %v, want hint", b.Penalty())
	}
	// The cap bites.
	b.OnRateLimit(0)
	b.OnRateLimit(0)
	if b.Penalty() != time.Second {
		t.Fatalf("penalty = %v, want cap", b.Penalty())
	}
	// Successes decay it back to zero.
	for i := 0; i < 20 && b.Penalty() > 0; i++ {
		b.Success()
	}
	if b.Penalty() != 0 {
		t.Fatalf("penalty = %v after decay, want 0", b.Penalty())
	}
}

func TestBreakerNilMetrics(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, ProbeAfterSheds: 1}, nil)
	b.Failure()
	b.Allow()
	b.Success() // must not panic without metrics
}
