package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"adwars/internal/analytics"
)

// analyticsSnap fetches and decodes /admin/analytics.
func analyticsSnap(t *testing.T, s *Server) analytics.Snapshot {
	t.Helper()
	rec := do(t, s, "GET", "/admin/analytics", "")
	if rec.Code != 200 {
		t.Fatalf("/admin/analytics status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var snap analytics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("analytics snapshot does not parse: %v\n%s", err, rec.Body.Bytes())
	}
	return snap
}

// waitForTotals polls the endpoint until the cumulative totals equal want
// exactly (sampling=1.0 makes this an equality, not an approximation).
func waitForTotals(t *testing.T, s *Server, want map[string]uint64) analytics.Snapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := analyticsSnap(t, s)
		match := len(snap.Totals) == len(want)
		for k, n := range want {
			if snap.Totals[k] != n {
				match = false
			}
		}
		if match {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("totals never reconciled:\n got %v\nwant %v", snap.Totals, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeAnalyticsReconciliation drives known traffic through every
// verdict path — single match, batch match, single classify, batch
// classify — and checks the analytics totals reconcile exactly against the
// client-side ledger at sampling 1.0, with zero drops and zero sampled-out.
func TestServeAnalyticsReconciliation(t *testing.T) {
	s := newTestServer(t, Config{})

	// 2 blocked + 1 allowed + 1 no-match via /v1/match.
	for i := 0; i < 2; i++ {
		do(t, s, "POST", "/v1/match",
			`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`)
	}
	do(t, s, "POST", "/v1/match",
		`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`)
	do(t, s, "POST", "/v1/match", `{"url":"http://clean.example/app.js"}`)
	// 1 blocked + 1 no-match via the batch endpoint.
	do(t, s, "POST", "/v1/match/batch", `{"requests":[
		{"url":"http://tracker.example/t.js","type":"script","page_domain":"news.example"},
		{"url":"http://clean2.example/app.js"}]}`)
	// 1 anti-adblock + 1 benign via /v1/classify, 1 of each via the batch.
	do(t, s, "POST", "/v1/classify", testAntiScript)
	do(t, s, "POST", "/v1/classify", testBenignScript)
	body, _ := json.Marshal(classifyBatchRequest{Scripts: []string{testAntiScript, testBenignScript}})
	do(t, s, "POST", "/v1/classify/batch", string(body))

	snap := waitForTotals(t, s, map[string]uint64{
		"match/blocked":         3,
		"match/allowed":         1,
		"match/no-match":        2,
		"classify/anti-adblock": 2,
		"classify/benign":       2,
	})
	if snap.Counters.Dropped != 0 || snap.Counters.SampledOut != 0 {
		t.Fatalf("dropped %d / sampled-out %d at sampling 1.0 under light load",
			snap.Counters.Dropped, snap.Counters.SampledOut)
	}
	if snap.Counters.Recorded != 10 {
		t.Fatalf("recorded = %d, want 10", snap.Counters.Recorded)
	}

	// The bucket rows attribute the winners: the top firing rule and the
	// block-rate domains must be present with rule text and ordinals.
	rep := analytics.BuildReport(analytics.RowsFromSnapshot(&snap))
	if len(rep.Rules) == 0 || rep.Rules[0].Rule != "||ads.example.com^" || rep.Rules[0].Hits != 2 {
		t.Fatalf("top rules = %+v", rep.Rules)
	}
	foundNews := false
	for _, d := range rep.Domains {
		if d.Domain == "news.example" {
			foundNews = true
			if d.Total != 4 || d.Blocked != 3 {
				t.Fatalf("news.example profile = %+v", d)
			}
		}
	}
	if !foundNews {
		t.Fatalf("page domain missing from domain profile: %+v", rep.Domains)
	}
}

// TestServeAnalyticsDomainFallback: a query without page_domain attributes
// to the request URL's host.
func TestServeAnalyticsDomainFallback(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/match", `{"url":"http://ads.example.com/banner.js","type":"script"}`)
	snap := waitForTotals(t, s, map[string]uint64{"match/blocked": 1})
	rep := analytics.BuildReport(analytics.RowsFromSnapshot(&snap))
	if len(rep.Domains) != 1 || rep.Domains[0].Domain != "ads.example.com" {
		t.Fatalf("domains = %+v, want URL-host fallback", rep.Domains)
	}
}

// TestServeAnalyticsShutdownFlush proves the graceful-drain contract: a
// SIGTERM-equivalent context cancel flushes the rings and the final
// aggregator state to spill before Serve returns, and the consumer
// goroutine exits (no leak). Nothing is spilled before it: a bucket is
// evicted only once it is older than the aggregator's whole retention, so
// every decision this short run made reaches disk through the flush.
func TestServeAnalyticsShutdownFlush(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	s := newTestServer(t, Config{
		Workers:   2,
		Analytics: &analytics.Config{SpillDir: dir},
	})
	if err := s.AnalyticsError(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := fmt.Sprintf("http://%s/v1/match", ln.Addr())
	const sent = 7
	for i := 0; i < sent; i++ {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("match status = %d", resp.StatusCode)
		}
	}
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	rows, err := analytics.ReadSpillDir(dir)
	if err != nil {
		t.Fatalf("no spill after drain: %v", err)
	}
	var total uint64
	for _, row := range rows {
		total += row.Count
		if row.Kind != "match" || row.Verdict != "blocked" {
			t.Fatalf("unexpected spill row: %+v", row)
		}
	}
	if total != sent {
		t.Fatalf("spill carries %d decisions, want %d", total, sent)
	}
}

// TestZeroConfigRecordsAndGoverns: the zero Config is the one serving
// configuration — a collector and a governor exist, their admin endpoints
// answer, and /debug/vars carries both whole trees.
func TestZeroConfigRecordsAndGoverns(t *testing.T) {
	s := newServer(t, Config{})
	if s.Analytics() == nil || s.Degrade() == nil {
		t.Fatalf("collector %v, governor %v: want both", s.Analytics(), s.Degrade())
	}
	for _, path := range []string{"/admin/analytics", "/admin/degrade"} {
		if rec := do(t, s, "GET", path, ""); rec.Code != 200 {
			t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	}
	body := do(t, s, "GET", "/debug/vars", "").Body.String()
	for _, want := range []string{`"adwars_analytics": {"enabled":true,`, `"adwars_degrade": {"level":"L0",`} {
		if !strings.Contains(body, want) {
			t.Errorf("debug vars lack %s: %s", want, body)
		}
	}
}

// TestServeAnalyticsDebugVars checks the lazily computed /debug/vars
// export: counters, occupancy, and sample rate appear under
// adwars_analytics and agree with the endpoint.
func TestServeAnalyticsDebugVars(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/match", `{"url":"http://ads.example.com/banner.js","type":"script"}`)
	waitForTotals(t, s, map[string]uint64{"match/blocked": 1})

	rec := do(t, s, "GET", "/debug/vars", "")
	var vars struct {
		Analytics analytics.Vars `json:"adwars_analytics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("debug vars do not parse: %v\n%s", err, rec.Body.Bytes())
	}
	av := vars.Analytics
	if !av.Enabled || av.Recorded != 1 || av.Dropped != 0 || av.SampleRate != 1 {
		t.Fatalf("adwars_analytics = %+v", av)
	}
	if av.AggBuckets != 1 || av.AggRows != 1 || av.AggBytes <= 0 {
		t.Fatalf("aggregator occupancy = %+v", av)
	}
}

// TestServeAnalyticsSpillDirError: an unusable spill dir latches a
// construction error the embedder can check, and the server still records
// its decisions, in memory only.
func TestServeAnalyticsSpillDirError(t *testing.T) {
	file := t.TempDir() + "/occupied"
	if err := writeFile(file, "x"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Analytics: &analytics.Config{SpillDir: file + "/sub"}})
	if s.AnalyticsError() == nil {
		t.Fatal("no error latched for an uncreatable spill dir")
	}
	do(t, s, "POST", "/v1/match", `{"url":"http://ads.example.com/banner.js","type":"script"}`)
	if snap := waitForTotals(t, s, map[string]uint64{"match/blocked": 1}); snap.SpillDir != "" {
		t.Fatalf("spill dir %q reported after it failed to open", snap.SpillDir)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// matchP99 drives the reusable handler rig n times and returns the p99
// handler latency.
func matchP99(t *testing.T, s *Server, n int) time.Duration {
	t.Helper()
	const body = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`
	h, w, req, rb := matchAllocRig(s, body)
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n+n/10; i++ {
		rb.Reset(body)
		w.status = 0
		t0 := time.Now()
		h.ServeHTTP(w, req)
		if i >= n/10 { // first 10% is warmup
			lat = append(lat, time.Since(t0))
		}
	}
	if w.status != 200 {
		t.Fatalf("status = %d", w.status)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}

// TestServeAnalyticsOverheadGate is the regression gate for the "zero
// added p99" claim: the /v1/match handler recording every verdict must
// stay within a generous envelope of the same handler with every verdict
// sampled out, where recording is a counter add. It catches the pipeline
// growing a lock, a syscall, or a blocking send on the hot path — real
// regressions are order-of-magnitude, scheduler noise is not — while what
// recording costs is measured by the whole-stack benchmark
// (`analytics.record_ns`, `analytics.drop_frac`; bench/README.md).
func TestServeAnalyticsOverheadGate(t *testing.T) {
	if raceSrvEnabled {
		t.Skip("latency gating is meaningless under -race")
	}
	quiet := newTestServer(t, Config{Workers: 4, Queue: 64, QueueTimeout: time.Second})
	quiet.Analytics().SetSampleOverride(0)
	on := newTestServer(t, Config{Workers: 4, Queue: 64, QueueTimeout: time.Second})

	const iters = 4000
	// Interleave whole passes so machine-wide noise (GC, CPU frequency,
	// neighbors) hits both sides; keep the best-of-3 p99 per side.
	p99Quiet, p99On := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		if d := matchP99(t, quiet, iters); d < p99Quiet {
			p99Quiet = d
		}
		if d := matchP99(t, on, iters); d < p99On {
			p99On = d
		}
	}
	limit := 2*p99Quiet + 200*time.Microsecond
	t.Logf("p99 sampled-out=%v recorded=%v (limit %v)", p99Quiet, p99On, limit)
	if p99On > limit {
		t.Fatalf("analytics p99 %v exceeds envelope %v (sampled out %v) — decision logging is blocking the hot path",
			p99On, limit, p99Quiet)
	}
}
