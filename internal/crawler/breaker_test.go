package crawler

import "testing"

// TestBreakerOpenHalfOpenClose: the gate books what its circuit does — every
// open, every shed — in the crawl's metrics. (The circuit itself is
// internal/chassis's, walked through every transition there under this probe
// rule.)
func TestBreakerOpenHalfOpenClose(t *testing.T) {
	var m Metrics
	b := NewBreaker(&m)
	ledger := func(state string, opens, sheds int64) {
		t.Helper()
		if b.circuit.State() != state || m.BreakerOpens.Load() != opens || m.BreakerSheds.Load() != sheds {
			t.Fatalf("state %s opens %d sheds %d, want %s %d %d",
				b.circuit.State(), m.BreakerOpens.Load(), m.BreakerSheds.Load(), state, opens, sheds)
		}
	}
	// shed sends probeAfterSheds-1 callers away, each booked.
	shed := func() {
		t.Helper()
		for i := 1; i < probeAfterSheds; i++ {
			if b.Allow() {
				t.Fatalf("gate hit %d of an open breaker admitted", i)
			}
		}
	}
	if !b.Allow() {
		t.Fatal("new breaker must admit")
	}
	for i := 1; i < failureThreshold; i++ {
		b.Failure()
	}
	ledger("closed", 0, 0)
	b.Failure()
	ledger("open", 1, 0)
	// probeAfterSheds-1 sheds, then the next gate hit is the probe, beside
	// which another caller is shed.
	shed()
	if !b.Allow() || b.Allow() {
		t.Fatal("want probe, shed")
	}
	ledger("half-open", 1, probeAfterSheds)
	b.Failure() // the probe fails: a second open
	ledger("open", 2, probeAfterSheds)
	shed()
	if !b.Allow() {
		t.Fatal("want probe")
	}
	b.Success()
	ledger("closed", 2, 2*probeAfterSheds-1)
}

func TestBreakerAdaptivePenalty(t *testing.T) {
	b := NewBreaker(nil)
	if b.Penalty() != 0 {
		t.Fatal("fresh breaker must not pace")
	}
	b.OnRateLimit(0)
	if b.Penalty() != penaltyBase {
		t.Fatalf("penalty = %v, want base", b.Penalty())
	}
	b.OnRateLimit(0)
	if b.Penalty() != 2*penaltyBase {
		t.Fatalf("penalty = %v, want doubled", b.Penalty())
	}
	// A larger Retry-After hint wins.
	b.OnRateLimit(7 * penaltyBase)
	if b.Penalty() != 7*penaltyBase {
		t.Fatalf("penalty = %v, want hint", b.Penalty())
	}
	// The cap bites.
	for i := 0; i < 4; i++ {
		b.OnRateLimit(0)
	}
	if b.Penalty() != penaltyMax {
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
	b := NewBreaker(nil)
	for i := 0; i < failureThreshold; i++ {
		b.Failure()
	}
	for i := 0; i < probeAfterSheds; i++ {
		b.Allow()
	}
	b.Success() // must not panic without metrics
}
