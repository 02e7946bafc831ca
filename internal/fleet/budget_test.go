package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// tenths reads b's retry budget in the unit it is kept in.
func tenths(b *Backend) int {
	b.budget.mu.Lock()
	defer b.budget.mu.Unlock()
	return b.budget.tenths
}

func TestRetryBudgetBucket(t *testing.T) {
	b := &newBackend("http://replica").budget
	for i := 0; i < 10; i++ {
		if !b.spend() {
			t.Fatalf("fresh bucket refused token %d of its 10", i+1)
		}
	}
	if b.spend() {
		t.Fatal("empty bucket granted a token")
	}
	// Ten successes earn one whole token back, nine do not.
	for i := 0; i < 9; i++ {
		b.earn()
	}
	if b.spend() {
		t.Fatalf("nine tenths spent as a whole token (level %.2f)", b.level())
	}
	b.earn()
	if !b.spend() {
		t.Fatal("ten successes did not earn a spendable token")
	}
	// Refill never exceeds the cap.
	for i := 0; i < 200; i++ {
		b.earn()
	}
	if got := b.level(); got != 10 {
		t.Fatalf("bucket level %.2f after overfill, want capped at 10", got)
	}
}

func TestRetryBudgetDefaults(t *testing.T) {
	b := &newBackend("http://replica").budget
	if got := b.level(); got != 10 {
		t.Fatalf("bucket size %.1f, want 10", got)
	}
	b.spend()
	b.earn()
	if got := b.level(); got != 9.1 {
		t.Fatalf("one spend and one refill left level %.2f, want 9.1", got)
	}
}

// flakyBackend answers like rep but fails every other exchange while failing
// is set: never three failures running, so the breaker never ejects it, and
// every failure it answers costs the gateway a retry elsewhere.
func flakyBackend(t *testing.T, rep *replica, failing *atomic.Bool) *httptest.Server {
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && n.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		rep.srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayRetryBudgetStopsRetryStorm: with a backend failing under a
// live breaker, the gateway stops generating extra attempts once the
// retry budget is exhausted — the chain breaks with
// retry_budget_exhaustions ticking instead of retrying every failure
// forever.
func TestGatewayRetryBudgetStopsRetryStorm(t *testing.T) {
	checkGoroutineLeaks(t)
	live := newReplica(t, "live", sealedLists(t, "v1"))
	var failing atomic.Bool
	failing.Store(true)
	flaky := flakyBackend(t, live, &failing)
	g, ts := newTestGateway(t, GatewayConfig{Backends: []string{flaky.URL, live.ts.URL}})

	const sent = 80
	exhaustedSeen := false
	for i := 0; i < sent; i++ {
		status, _, _ := matchVia(t, ts.URL)
		switch status {
		case http.StatusOK:
		case http.StatusBadGateway:
			exhaustedSeen = true
		default:
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	snap := snapshotOf(t, g)
	if snap.BudgetExhausted == 0 || !exhaustedSeen {
		t.Fatalf("budget never exhausted: metrics %+v, 502 seen %v", snap, exhaustedSeen)
	}
	// Every retry went to the live backend and was paid from its bucket:
	// the ten tokens it started with and a tenth per answer it gave.
	if maxFunded := uint64(10 + sent/10); snap.Retries > maxFunded {
		t.Fatalf("retries = %d, want <= %d (budget-bounded)", snap.Retries, maxFunded)
	}
	for _, b := range snap.Backends {
		if b.BudgetTokens < 0 || b.Ejections != 0 {
			t.Fatalf("backend %s: %+v, want a non-negative budget and no ejection", b.URL, b)
		}
	}
}

// TestGatewayBudgetRefilledBySuccess: a drained budget recovers through
// successful exchanges, a tenth of a token each, so a transient failure
// window does not disable failover forever.
func TestGatewayBudgetRefilledBySuccess(t *testing.T) {
	checkGoroutineLeaks(t)
	live := newReplica(t, "live", sealedLists(t, "v1"))
	g, ts := newTestGateway(t, GatewayConfig{Backends: []string{live.ts.URL}})
	b := g.pool.Backends()[0]
	// Drain the bucket by hand.
	for b.budget.spend() {
	}
	if got := tenths(b); got != 0 {
		t.Fatalf("bucket not drained: %d tenths", got)
	}
	// Successful proxied traffic earns it back at the refill rate.
	for i := 1; i <= 10; i++ {
		if status, _, _ := matchVia(t, ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if got := tenths(b); got != i {
			t.Fatalf("bucket holds %d tenths after %d successes, want %d", got, i, i)
		}
	}
	if !b.budget.spend() {
		t.Fatal("ten successes did not fund a retry")
	}
}

// TestGatewayBudgetAndBreakerTogether: the retry budget and the breaker at
// their real constants, on one gateway. A backend failing every other
// exchange never trips the breaker, yet its failures still run the other
// backend's budget dry and tick retry_budget_exhaustions. Once the failures
// stop, each answer the other backend gives refills it by exactly a tenth,
// and when the failures resume, the refilled token pays for a retry instead
// of a 502.
func TestGatewayBudgetAndBreakerTogether(t *testing.T) {
	checkGoroutineLeaks(t)
	live := newReplica(t, "live", sealedLists(t, "v1"))
	var failing atomic.Bool
	failing.Store(true)
	flaky := flakyBackend(t, live, &failing)
	g, ts := newTestGateway(t, GatewayConfig{Backends: []string{flaky.URL, live.ts.URL}})
	fb, lb := g.pool.Backends()[0], g.pool.Backends()[1]

	for i := 0; g.met.BudgetExhausted.Load() == 0; i++ {
		if i == 100 {
			t.Fatalf("budget never ran dry in %d requests (%d tenths left)", i, tenths(lb))
		}
		matchVia(t, ts.URL)
	}
	if fb.ejections.Load() != 0 || fb.br.State() != "closed" || fb.failures.Load() == 0 {
		t.Fatalf("flaky backend: %d failures, %d ejections, breaker %s; want failures that never eject",
			fb.failures.Load(), fb.ejections.Load(), fb.br.State())
	}
	if got := tenths(lb); got >= 10 {
		t.Fatalf("exhausted with %d tenths in the bucket", got)
	}

	failing.Store(false)
	for tenths(lb) < 10 {
		before, answered := tenths(lb), lb.requests.Load()
		if status, _, _ := matchVia(t, ts.URL); status != http.StatusOK {
			t.Fatalf("status %d with every backend answering", status)
		}
		want := before
		if lb.requests.Load() > answered {
			want++
		}
		if got := tenths(lb); got != want {
			t.Fatalf("bucket went %d -> %d tenths, want %d", before, got, want)
		}
	}

	failing.Store(true)
	exhausted, failovers := g.met.BudgetExhausted.Load(), g.met.Failovers.Load()
	for failed := fb.failures.Load(); fb.failures.Load() == failed; {
		if status, _, _ := matchVia(t, ts.URL); status != http.StatusOK {
			t.Fatalf("status %d with a token in the bucket", status)
		}
	}
	if g.met.BudgetExhausted.Load() != exhausted || g.met.Failovers.Load() != failovers+1 {
		t.Fatalf("exhaustions %d -> %d, failovers %d -> %d: the refilled token did not pay for the retry",
			exhausted, g.met.BudgetExhausted.Load(), failovers, g.met.Failovers.Load())
	}
}
