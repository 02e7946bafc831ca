package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adwars/internal/chassis"
)

func TestRetryBudgetBucket(t *testing.T) {
	b := newRetryBudget(2, 0.5)
	if !b.spend() || !b.spend() {
		t.Fatal("fresh bucket refused its capacity")
	}
	if b.spend() {
		t.Fatal("empty bucket granted a token")
	}
	// Two successes earn one whole token back.
	b.earn()
	if b.spend() {
		t.Fatalf("half a token spent as a whole one (level %.2f)", b.level())
	}
	b.earn()
	if !b.spend() {
		t.Fatal("refilled token not spendable")
	}
	// Refill never exceeds the cap.
	for i := 0; i < 100; i++ {
		b.earn()
	}
	if got := b.level(); got != 2 {
		t.Fatalf("bucket level %.2f after overfill, want capped at 2", got)
	}
}

func TestRetryBudgetDefaults(t *testing.T) {
	b := newRetryBudget(0, 0)
	if got := b.level(); got != 10 {
		t.Fatalf("default bucket size %.1f, want 10", got)
	}
	b.spend()
	b.earn()
	if got := b.level(); got != 9.1 {
		t.Fatalf("default refill left level %.2f, want 9.1", got)
	}
}

// TestGatewayRetryBudgetStopsRetryStorm: with a dead backend and the
// retry budget exhausted, the gateway stops generating extra attempts —
// the chain breaks with retry_budget_exhaustions ticking instead of
// hammering the corpse forever.
func TestGatewayRetryBudgetStopsRetryStorm(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	live := newReplica(t, "live", seed)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()

	g, ts := newTestGateway(t, GatewayConfig{
		Backends: []string{dead.URL, live.ts.URL},
		Pool: PoolConfig{
			// A huge fail threshold keeps the breaker out of the picture:
			// only the budget can stop the retries.
			FailThreshold: 1 << 20,
			RetryBudget:   3,
			RetryRefill:   0.001,
		},
	})

	okBefore, exhaustedSeen := 0, false
	for i := 0; i < 40; i++ {
		status, _, _ := matchVia(t, ts.URL)
		switch status {
		case http.StatusOK:
			okBefore++
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
	// The live backend's budget funded at most its bucket of retries:
	// the retry count is bounded by the budgets, not the request count.
	maxFunded := uint64(3 + 3 + 40) // two buckets + refill slack
	if snap.Retries > maxFunded {
		t.Fatalf("retries = %d, want <= %d (budget-bounded)", snap.Retries, maxFunded)
	}
	for _, b := range snap.Backends {
		if b.BudgetTokens < 0 {
			t.Fatalf("backend %s budget went negative: %+v", b.URL, b)
		}
	}
}

// TestGatewayBudgetRefilledBySuccess: a drained budget recovers through
// successful exchanges, so a transient failure window does not disable
// failover forever.
func TestGatewayBudgetRefilledBySuccess(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	live := newReplica(t, "live", seed)
	g, ts := newTestGateway(t, GatewayConfig{
		Backends: []string{live.ts.URL},
		Pool:     PoolConfig{RetryBudget: 2, RetryRefill: 0.5},
	})
	b := g.pool.Backends()[0]
	// Drain the bucket by hand.
	for b.budget.spend() {
	}
	if got := b.budget.level(); got >= 1 {
		t.Fatalf("bucket not drained: %.2f", got)
	}
	// Successful proxied traffic earns it back at the refill rate.
	for i := 0; i < 4; i++ {
		if status, _, _ := matchVia(t, ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if got := b.budget.level(); got < 2 {
		t.Fatalf("bucket level %.2f after 4 successes at refill 0.5, want 2 (capped)", got)
	}
}

// TestGatewayHedgeSpendsBudget: hedge chains pay out of the same bucket
// — with the target backend's budget dry, the hedge fires but cannot
// generate a second exchange.
func TestGatewayHedgeSpendsBudget(t *testing.T) {
	checkGoroutineLeaks(t)
	var slowHits, fastHits atomic.Uint64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		select {
		case <-time.After(200 * time.Millisecond):
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fastHits.Add(1)
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer fast.Close()

	g, err := NewGateway(GatewayConfig{
		Backends:   []string{slow.URL, fast.URL},
		HedgeDelay: 20 * time.Millisecond,
		Pool:       PoolConfig{RetryBudget: 1, RetryRefill: 0.0001},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Drain both budgets so no hedge (or retry) attempt can be funded.
	for _, b := range g.pool.Backends() {
		for b.budget.spend() {
		}
	}
	fastHits.Store(0)
	slowHits.Store(0)

	// Round-robin decides which backend the primary chain draws; fire a
	// few requests so at least one lands on the slow backend and the
	// hedge timer goes off. With every bucket dry the hedge must be
	// refused before sending anything: each request generates exactly
	// one backend exchange, ever.
	client := &http.Client{Timeout: 5 * time.Second}
	sent := uint64(0)
	for i := 0; i < 6 && g.met.BudgetExhausted.Load() == 0; i++ {
		resp, err := client.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(`{"url":"http://x/a"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		sent++
	}
	if got := g.met.BudgetExhausted.Load(); got == 0 {
		t.Fatal("retry_budget_exhaustions = 0, want > 0 for the refused hedge")
	}
	if g.met.Hedges.Load() == 0 {
		t.Fatal("hedge chain never fired — the test exercised nothing")
	}
	if total := slowHits.Load() + fastHits.Load(); total != sent {
		t.Fatalf("backends saw %d exchanges for %d requests (slow %d, fast %d): extra attempts sent without budget",
			total, sent, slowHits.Load(), fastHits.Load())
	}
}

// TestGatewayForwardsDeadlineHeader: the gateway stamps X-Adwars-Deadline
// with the per-try remaining milliseconds, narrowed by any deadline the
// client already propagated.
func TestGatewayForwardsDeadlineHeader(t *testing.T) {
	checkGoroutineLeaks(t)
	var gotDeadline atomic.Value
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDeadline.Store(r.Header.Get(chassis.DeadlineHeader))
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer backend.Close()

	_, ts := newTestGateway(t, GatewayConfig{
		Backends:      []string{backend.URL},
		PerTryTimeout: 2 * time.Second,
	})

	// No client deadline: the header is the per-try budget (~2000ms).
	resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(`{"url":"http://x/a"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	ms, err := strconv.ParseInt(gotDeadline.Load().(string), 10, 64)
	if err != nil {
		t.Fatalf("deadline header %q not an integer: %v", gotDeadline.Load(), err)
	}
	if ms <= 0 || ms > 2000 {
		t.Fatalf("deadline header %dms, want in (0, 2000]", ms)
	}

	// A tighter client deadline wins over the per-try budget.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(`{"url":"http://x/a"}`))
	req.Header.Set(chassis.DeadlineHeader, "50")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	ms, err = strconv.ParseInt(gotDeadline.Load().(string), 10, 64)
	if err != nil {
		t.Fatalf("deadline header %q not an integer: %v", gotDeadline.Load(), err)
	}
	if ms > 50 {
		t.Fatalf("deadline header %dms, want <= client's 50ms", ms)
	}
}

// TestGatewayDeadlineGarbageBecomesOwnBudget: the gateway and the replica
// read X-Adwars-Deadline with one parser, so a client value that is not a
// plain run of digits — negative, signed, trailing garbage — narrows nothing:
// what reaches a real replica is the gateway's own remaining per-try budget,
// present, never below 0, and the replica's deadline refusal stays armed with
// it.
func TestGatewayDeadlineGarbageBecomesOwnBudget(t *testing.T) {
	checkGoroutineLeaks(t)
	rep := newReplica(t, "r1", sealedLists(t, "v1"))
	var reached atomic.Value // what the replica was sent, "absent" if nothing
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := "absent"
		if vs := r.Header[chassis.DeadlineHeader]; len(vs) == 1 {
			got = vs[0]
		}
		reached.Store(got)
		rep.srv.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	const perTry = 2 * time.Second
	_, ts := newTestGateway(t, GatewayConfig{Backends: []string{front.URL}, PerTryTimeout: perTry})

	send := func(inbound string) (status int, forwarded string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match",
			strings.NewReader(`{"url":"http://ads.example.com/banner.js"}`))
		req.Header.Set(chassis.DeadlineHeader, inbound)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, reached.Load().(string)
	}
	for _, inbound := range []string{"-5", "+5", "5x", "5 ms", "1099511627777x", "0x10", "-0"} {
		status, forwarded := send(inbound)
		ms, err := strconv.ParseUint(forwarded, 10, 63)
		if err != nil {
			t.Fatalf("inbound %q reached the replica as %q, want a run of digits", inbound, forwarded)
		}
		// The whole per-try budget but for the time it took to get here.
		if ms == 0 || ms > uint64(perTry.Milliseconds()) || ms < uint64(perTry.Milliseconds())/2 {
			t.Errorf("inbound %q reached the replica as %dms, want the gateway's own budget (just under %v)", inbound, ms, perTry)
		}
		if status != http.StatusOK {
			t.Errorf("inbound %q: status %d, want 200 (a garbled hint refuses nothing)", inbound, status)
		}
	}
	// A value both sides read as a budget still narrows, and still refuses:
	// 5ms cannot cover the replica's queue wait.
	if status, forwarded := send("5"); status != http.StatusTooManyRequests || forwarded > "5" || len(forwarded) != 1 {
		t.Errorf("inbound 5: status %d, replica was sent %q; want 429 and at most 5", status, forwarded)
	}
}
