package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
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
// exactly (every decision is recorded, so this is an equality, not an
// approximation).
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
// client-side ledger, with zero drops.
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
	if snap.Counters.Dropped != 0 {
		t.Fatalf("dropped %d under light load", snap.Counters.Dropped)
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
// export: counters and occupancy appear under adwars_analytics and agree
// with the endpoint.
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
	if !av.Enabled || av.Recorded != 1 || av.Dropped != 0 || av.RingOccupancy != 0 {
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

// recordP99 times every Collector.Record call made by producers
// goroutines, each recording for window with the collector's consumer
// draining beside them, and returns the p99 call.
func recordP99(c *analytics.Collector, producers int, window time.Duration) time.Duration {
	lats := make([][]time.Duration, producers)
	var wg sync.WaitGroup
	for p := range lats {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1<<16)
			ev := analytics.Event{Kind: analytics.KindMatch, Verdict: analytics.VerdictBlocked,
				Domain: "news.example", Rule: "||ads.example.com^"}
			for start := time.Now(); time.Since(start) < window && len(lat) < cap(lat); {
				t0 := time.Now()
				ev.UnixNano = t0.UnixNano()
				c.Record(ev)
				lat = append(lat, time.Since(t0))
			}
			lats[p] = lat
		}(p)
	}
	wg.Wait()
	all := slices.Concat(lats...)
	slices.Sort(all)
	return all[len(all)*99/100]
}

// TestServeAnalyticsOverheadGate is the regression gate for the "zero
// added p99" claim on the serving hot path: Collector.Record, timed call by
// call from eight concurrent producers while the consumer drains, keeps its
// p99 under recordP99Limit. A lock the producers contend on, a write
// syscall or a blocking channel send on the hot path puts the p99 above it;
// scheduler noise does not reach 1 % of the calls. A stall that hits fewer
// than 1 % of them (a producer waiting once per 5 ms drain) is below what a
// p99 can see. What recording costs is measured by the
// whole-stack benchmark (`analytics.record_ns`, `analytics.drop_frac`;
// bench/README.md).
func TestServeAnalyticsOverheadGate(t *testing.T) {
	if raceSrvEnabled {
		t.Skip("latency gating is meaningless under -race")
	}
	s := newTestServer(t, Config{})
	// Interleave three passes so a slow spell of the machine falls on one;
	// keep the best p99.
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		best = min(best, recordP99(s.Analytics(), 8, 20*time.Millisecond))
	}
	t.Logf("Record p99 %v (limit %v)", best, recordP99Limit)
	if best > recordP99Limit {
		t.Fatalf("Record p99 %v exceeds %v — decision logging is blocking the hot path", best, recordP99Limit)
	}
}

// recordP99Limit bounds Record's p99 at ≈ 5× the highest measured on two
// shared cores (0.23–0.65 µs, the clock reads that time it included).
const recordP99Limit = 3 * time.Microsecond
