package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func chaosServer(t *testing.T, cc ChaosConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, Config{Chaos: &cc})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

const chaosMatchBody = `{"url":"http://ads.example.com/banner.js","type":"script"}`

// TestChaosTruncatedReadBecomes400: an injected mid-body read failure must
// surface as a structured 400 — the same degradation a real half-dead
// client produces — never a 5xx or a hang.
func TestChaosTruncatedReadBecomes400(t *testing.T) {
	checkGoroutineLeaks(t)
	s, ts := chaosServer(t, ChaosConfig{Seed: 7, TruncateRate: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody))
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code != "bad_request" {
		t.Fatalf("truncated read not a structured 400: %v %+v", err, envelope)
	}
	if got := s.met.Chaos.TruncateInjections.Load(); got != 1 {
		t.Errorf("truncate_injections = %d, want 1", got)
	}
}

// TestChaosConnectionCloseIsClientVisible: an injected close reaches the
// client as a transport error, and the server survives to answer the next
// request.
func TestChaosConnectionCloseIsClientVisible(t *testing.T) {
	checkGoroutineLeaks(t)
	s, ts := chaosServer(t, ChaosConfig{Seed: 7, CloseRate: 1})
	if _, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody)); err == nil {
		t.Fatal("injected close produced a clean response")
	}
	if got := s.met.Chaos.CloseInjections.Load(); got != 1 {
		t.Errorf("close_injections = %d, want 1", got)
	}
	// Control plane unaffected.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after injected close: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestChaosLatencyInjection: latency faults delay but do not alter the
// response.
func TestChaosLatencyInjection(t *testing.T) {
	const delay = 30 * time.Millisecond
	s, ts := chaosServer(t, ChaosConfig{Seed: 7, LatencyRate: 1, Latency: delay})
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("request returned in %v, want ≥ %v of injected latency", elapsed, delay)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite latency", resp.StatusCode)
	}
	var res matchResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || !res.Blocked {
		t.Fatalf("latency fault corrupted the verdict: %v %+v", err, res)
	}
	if got := s.met.Chaos.LatencyInjections.Load(); got != 1 {
		t.Errorf("latency_injections = %d, want 1", got)
	}
}

// TestChaosDeterministicBySeed: the same seed over the same sequential
// request sequence draws the same faults; a different seed draws a
// different (but internally consistent) pattern.
func TestChaosDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []int {
		cc := ChaosConfig{Seed: seed, CloseRate: 0.3, TruncateRate: 0.3}
		_, ts := chaosServer(t, cc)
		var outcomes []int
		client := ts.Client()
		for i := 0; i < 24; i++ {
			resp, err := client.Post(ts.URL+"/v1/match", "application/json",
				strings.NewReader(chaosMatchBody))
			if err != nil {
				outcomes = append(outcomes, -1) // injected close
				continue
			}
			outcomes = append(outcomes, resp.StatusCode)
			resp.Body.Close()
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at request %d: %v vs %v", i, a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds drew identical fault patterns (suspicious)")
	}
}

// TestChaosSparesControlPlane: /healthz, /debug/vars, and /admin/reload
// never receive injected faults even at 100% rates.
func TestChaosSparesControlPlane(t *testing.T) {
	_, ts := chaosServer(t, ChaosConfig{Seed: 1, CloseRate: 1})
	for _, path := range []string{"/healthz", "/debug/vars"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s under 100%% close rate: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestChaosMetricsExported: the chaos counter block appears in the metrics
// tree only when chaos is configured.
func TestChaosMetricsExported(t *testing.T) {
	s, ts := chaosServer(t, ChaosConfig{Seed: 7, TruncateRate: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tree := s.met.String(); !strings.Contains(tree, `"chaos":{"latency_injections":0,"close_injections":0,"truncate_injections":1,"panic_injections":0}`) {
		t.Fatalf("chaos metrics missing or wrong: %s", tree)
	}
	if tree := newTestServer(t, Config{}).met.String(); strings.Contains(tree, `"chaos"`) {
		t.Errorf("chaos block exported on a chaos-free server: %s", tree)
	}
}
