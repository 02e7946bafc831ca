package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestGateway fronts the given backends on a real listener.
func newTestGateway(t *testing.T, cfg GatewayConfig) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// gatewaySnapshot is the gateway's metrics tree as the tests read it back
// from its JSON.
type gatewaySnapshot struct {
	Requests        uint64            `json:"requests"`
	Proxied         uint64            `json:"proxied"`
	Retries         uint64            `json:"retries"`
	Failovers       uint64            `json:"failovers"`
	NoBackend       uint64            `json:"no_backend_5xx"`
	Passthrough     uint64            `json:"passthrough_429"`
	BudgetExhausted uint64            `json:"retry_budget_exhaustions"`
	Backends        []backendSnapshot `json:"backends"`
}

func snapshotOf(t *testing.T, g *Gateway) gatewaySnapshot {
	t.Helper()
	var snap gatewaySnapshot
	if err := jsonDecode(strings.NewReader(g.Metrics().String()), &snap); err != nil {
		t.Fatalf("metrics tree is not JSON: %v", err)
	}
	return snap
}

func TestGatewayBalancesAndIsByteIdentical(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	reps := []*replica{
		newReplica(t, "r1", seed),
		newReplica(t, "r2", seed),
		newReplica(t, "r3", seed),
	}
	g, ts := newTestGateway(t, GatewayConfig{Backends: urls(reps)})

	// A direct replica answer is the control; every gateway answer must be
	// byte-identical to it (same snapshot version everywhere).
	_, control, _ := matchVia(t, reps[0].ts.URL)

	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		status, body, rid := matchVia(t, ts.URL)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if !bytes.Equal(body, control) {
			t.Fatalf("request %d: gateway body differs from direct replica body\n got: %s\nwant: %s", i, body, control)
		}
		seen[rid]++
	}
	if len(seen) != 3 {
		t.Errorf("9 requests hit %d replicas (%v), want all 3", len(seen), seen)
	}
	snap := snapshotOf(t, g)
	if snap.Requests != 9 || snap.Proxied != 9 || snap.Retries != 0 || snap.NoBackend != 0 {
		t.Errorf("metrics = %+v, want 9 clean proxied", snap)
	}
}

func TestGatewayFailoverOnDeadBackend(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	reps := []*replica{
		newReplica(t, "r1", seed),
		newReplica(t, "r2", seed),
		newReplica(t, "r3", seed),
	}
	g, ts := newTestGateway(t, GatewayConfig{Backends: urls(reps)})

	// Kill one replica without telling the gateway (no health loop
	// running): passive detection must absorb it with retries.
	reps[1].ts.Close()

	for i := 0; i < 12; i++ {
		status, _, _ := matchVia(t, ts.URL)
		if status != http.StatusOK {
			t.Fatalf("request %d after kill: status %d, want 200 (failover)", i, status)
		}
	}
	snap := snapshotOf(t, g)
	if snap.Retries == 0 || snap.Failovers == 0 {
		t.Errorf("retries=%d failovers=%d, want both > 0 after a dead backend", snap.Retries, snap.Failovers)
	}
	if snap.NoBackend != 0 {
		t.Errorf("no_backend_5xx = %d, want 0", snap.NoBackend)
	}
	// The dead backend's breaker ejected it after the fail threshold, so
	// later requests stopped paying the connection-refused tax.
	var dead backendSnapshot
	for _, b := range snap.Backends {
		if b.URL == reps[1].ts.URL {
			dead = b
		}
	}
	if dead.Ejections == 0 {
		t.Errorf("dead backend never ejected: %+v", dead)
	}
}

func TestGatewayAllBackendsDead(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	r1 := newReplica(t, "r1", seed)
	g, ts := newTestGateway(t, GatewayConfig{Backends: []string{r1.ts.URL}})
	r1.ts.Close()

	resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(`{"url":"http://x/a"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if !strings.Contains(string(body), "no_backend") {
		t.Errorf("502 body = %s, want no_backend envelope", body)
	}
	if snap := snapshotOf(t, g); snap.NoBackend != 1 {
		t.Errorf("no_backend_5xx = %d, want 1", snap.NoBackend)
	}
}

func TestGateway429PassthroughNoRetry(t *testing.T) {
	checkGoroutineLeaks(t)
	// A shedding replica is backpressure, not failure: the gateway must
	// relay the 429 untouched instead of amplifying load with retries.
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"queue full"}}`))
	}))
	defer shedder.Close()
	spare := newReplica(t, "spare", sealedLists(t, "v1"))

	g, ts := newTestGateway(t, GatewayConfig{Backends: []string{shedder.URL, spare.ts.URL}})
	sawShed := false
	for i := 0; i < 8 && !sawShed; i++ {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(`{"url":"http://x/a"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			sawShed = true
		case http.StatusOK:
		default:
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if !sawShed {
		t.Fatal("round-robin never surfaced the shedding backend's 429")
	}
	snap := snapshotOf(t, g)
	if snap.Passthrough == 0 {
		t.Errorf("passthrough_429 = 0, want > 0")
	}
	if snap.Retries != 0 {
		t.Errorf("retries = %d, want 0 (429 must not be retried)", snap.Retries)
	}
}

func TestGatewayHealthLoopRoutesAroundDrain(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := sealedLists(t, "v1")
	reps := []*replica{newReplica(t, "r1", seed), newReplica(t, "r2", seed)}
	g, ts := newTestGateway(t, GatewayConfig{Backends: urls(reps)})

	// One active check pass learns IDs and readiness.
	g.pool.checkAll(context.Background())
	for _, b := range g.pool.Backends() {
		if !b.healthy.Load() {
			t.Fatalf("backend %s unhealthy after first check", b.URL)
		}
	}

	// r1 announces drain: /readyz flips 503, the next check pass must
	// eject it from rotation before its listener ever closes.
	reps[0].srv.StartDrain()
	g.pool.checkAll(context.Background())

	for i := 0; i < 6; i++ {
		status, _, rid := matchVia(t, ts.URL)
		if status != http.StatusOK {
			t.Fatalf("request %d during drain: status %d", i, status)
		}
		if rid != "r2" {
			t.Fatalf("request %d routed to %q, want r2 only while r1 drains", i, rid)
		}
	}
	snap := snapshotOf(t, g)
	if snap.Retries != 0 {
		t.Errorf("retries = %d, want 0 — drain routing is proactive, not reactive", snap.Retries)
	}

	// Gateway /healthz still reports routable (one backend left).
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("gateway healthz = %d with one live backend, want 200", resp.StatusCode)
	}
}

func TestGatewayDebugVarsExposesTree(t *testing.T) {
	checkGoroutineLeaks(t)
	r1 := newReplica(t, "r1", sealedLists(t, "v1"))
	_, ts := newTestGateway(t, GatewayConfig{Backends: []string{r1.ts.URL}})
	if status, _, _ := matchVia(t, ts.URL); status != http.StatusOK {
		t.Fatal("warmup request failed")
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Gateway gatewaySnapshot `json:"adwars_gateway"`
	}
	if err := jsonDecode(resp.Body, &vars); err != nil {
		t.Fatalf("debug/vars not valid JSON: %v", err)
	}
	if vars.Gateway.Requests != 1 || vars.Gateway.Proxied != 1 {
		t.Errorf("adwars_gateway tree = %+v, want 1 request proxied", vars.Gateway)
	}
	if len(vars.Gateway.Backends) != 1 || vars.Gateway.Backends[0].Replica != "r1" {
		t.Errorf("backends = %+v, want learned replica id r1", vars.Gateway.Backends)
	}

	// Read-only, like /healthz: any other verb is a 405 in the envelope the
	// replicas use.
	for _, path := range []string{"/healthz", "/debug/vars"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := `{"error":{"code":"method_not_allowed","message":"` + path + ` requires GET or HEAD"}}` + "\n"
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" || string(body) != want {
			t.Errorf("POST %s = %d, Allow %q, body %s", path, resp.StatusCode, resp.Header.Get("Allow"), body)
		}
		if resp, err := http.Head(ts.URL + path); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: %v %v", path, resp, err)
		}
	}
}
