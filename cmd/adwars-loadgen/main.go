// Command adwars-loadgen drives an adwars-serve instance with a mixed
// match/classify workload and reports throughput, latency quantiles, and
// shed totals. It is the load half of the serving benchmark, of
// `make serve-smoke`, and (with -chaos) of `make chaos-smoke`.
//
// Usage:
//
//	adwars-loadgen -target http://127.0.0.1:8080 [-rate N] [-concurrency C]
//	               [-duration D] [-jitter F] [-classify-frac F]
//	               [-lists snapshot.json] [-seed S] [-check] [-usage-check]
//	               [-max-backoff D] [-chaos] [-fault-frac F] [-bench]
//	adwars-loadgen -target URL -probe
//
// -rate is the aggregate request rate across all workers (0 = unthrottled);
// -jitter perturbs each worker's inter-request gap by ±F to avoid lockstep
// waves. With -lists the match URLs replay domains harvested from a lists
// snapshot (the same corpus the server matches against), so a realistic
// fraction of requests hit blocking rules; otherwise a synthetic domain
// pool is used. Classify bodies alternate between a real BlockAdBlock-style
// detector and generated benign scripts.
//
// On a 429 the worker honors the server's Retry-After header, sleeping
// a jittered fraction (50–100%) of min(Retry-After, -max-backoff) before
// its next request, so workers shed together do not re-arrive together;
// the summary reports how often and how long workers backed off.
//
// Against a brownout-governed server every response carries its
// degradation level in X-Adwars-Degrade; the summary and the -check
// ledger break out response counts per observed level. -degrade-url
// takes comma-separated replica base URLs whose /admin/degrade to read:
// with -degrade-check the run waits (up to 15s) for each replica to
// recover to L0 and then asserts the ladder climbed to at least L2 and
// stepped back level-by-level without flapping (transitions == 2×peak).
// -bench-brownout emits a `BenchmarkBrownoutLoadgen` line carrying the
// hot-only response fraction (scripts/brownout_smoke.sh requires it > 0),
// the gateway's retry-budget exhaustions, and the worst replica transition
// p99.
//
// -chaos turns a -fault-frac fraction of requests hostile: malformed JSON,
// oversized bodies, slow-trickle uploads, and mid-body aborts, mixed with
// normal traffic. 5xx responses are parsed: a structured internal_panic
// envelope (the server's recovered-panic signature) is counted separately
// from genuine failures. -check in chaos mode gates on the chaos ledger:
// some 2xx, zero unexplained 5xx, and sent == 2xx + 4xx + 429 + panic-5xx
// + aborted — every request accounted for, nothing silently dropped.
//
// -bench appends a `BenchmarkChaosLoadgen` line (go-bench format) carrying
// shed-rate and recovered-panics custom units. recovered-panics is read
// back from the server's /debug/vars (the control plane is chaos-exempt).
//
// Pointed at an adwars-gateway, the summary additionally attributes
// answers per replica (X-Adwars-Replica) and per HTTP status, and
// -bench-fleet emits a `BenchmarkFleetLoadgen` line carrying the
// gateway's failover/retry/hedge counters (scripts/fleet_smoke.sh requires
// failovers ≥ 1). The
// -check accounting gate is unchanged behind a gateway: retries and
// hedges happen inside it, so every client-visible request still ends as
// exactly one 2xx or 429.
//
// -probe sends one canonical /v1/match and one canonical /v1/classify
// request, retrying each until it gets a 2xx (bounded attempts), and
// prints the response bodies. Two probes against equivalent servers —
// e.g. a fault-free control and a post-chaos survivor — must be
// byte-identical; chaos_smoke.sh diffs them.
//
// -check turns the run into a pass/fail gate: exit non-zero unless at
// least one request succeeded, there were no unexplained 5xx or transport
// errors, and every request was accounted for (2xx/429 in normal mode; the
// chaos ledger above with -chaos).
//
// -usage-check reconciles the server's per-rule usage telemetry against
// this run's own ledger: every 2xx /v1/match response is parsed and its
// per-list verdicts with decision != "no-match" counted (each is exactly
// one RecordUsage tick server-side), then /admin/usage is read before and
// after the run and the total-hit delta must equal the ledger count. It
// requires a quiet server (no other traffic between the two reads) and is
// incompatible with -chaos, whose trickle requests land as uncounted
// late 2xx.
//
// -analytics-check reconciles the server's decision analytics against
// this run's own verdict ledger: every 2xx /v1/match response's merged
// decision and every 2xx /v1/classify response's verdict is counted
// client-side, then the /admin/analytics cumulative totals are read
// before and after the run — the per-"kind/verdict" deltas must equal
// the ledger exactly (the server must be running -analytics at sampling
// 1.0), with zero ring drops and zero sampled-out decisions. The check
// polls briefly after the run so the consumer can finish draining the
// rings. Like -usage-check it needs a quiet server and is incompatible
// with -chaos.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adwars/internal/abp"
	"adwars/internal/antiadblock"
)

type counters struct {
	sent         int64
	ok2xx        int64
	shed429      int64
	other4xx     int64
	fail5xx      int64 // unexplained 5xx (not a recovered-panic envelope)
	panic5xx     int64 // 5xx carrying the structured internal_panic envelope
	aborted      int64 // transport-level failures: injected closes, our own mid-body aborts
	backoffs     int64
	backoffTotal time.Duration
	matchHits    int64 // list verdicts != "no-match" parsed from 2xx /v1/match bodies (-usage-check)
	// verdicts is the -analytics-check ledger: per-"kind/verdict" counts
	// parsed from 2xx bodies, in the same key space as the server's
	// /admin/analytics totals.
	verdicts  map[string]int64
	latencies []time.Duration
	// perReplica attributes answered requests by the X-Adwars-Replica
	// header, and perStatus by HTTP status — behind a gateway these show
	// the balance across the fleet and exactly what every request became.
	perReplica map[string]int64
	perStatus  map[int]int64
	// perDegrade attributes answered requests by the X-Adwars-Degrade
	// header: how much of the run was served at each brownout level.
	perDegrade map[string]int64
}

func (c *counters) observe(status int, replica, degrade string) {
	if c.perStatus == nil {
		c.perStatus = make(map[int]int64)
	}
	c.perStatus[status]++
	if replica != "" {
		if c.perReplica == nil {
			c.perReplica = make(map[string]int64)
		}
		c.perReplica[replica]++
	}
	if degrade != "" {
		if c.perDegrade == nil {
			c.perDegrade = make(map[string]int64)
		}
		c.perDegrade[degrade]++
	}
}

func (c *counters) add(o *counters) {
	c.sent += o.sent
	c.ok2xx += o.ok2xx
	c.shed429 += o.shed429
	c.other4xx += o.other4xx
	c.fail5xx += o.fail5xx
	c.panic5xx += o.panic5xx
	c.aborted += o.aborted
	c.backoffs += o.backoffs
	c.backoffTotal += o.backoffTotal
	c.matchHits += o.matchHits
	for k, v := range o.verdicts {
		if c.verdicts == nil {
			c.verdicts = make(map[string]int64)
		}
		c.verdicts[k] += v
	}
	c.latencies = append(c.latencies, o.latencies...)
	for k, v := range o.perReplica {
		if c.perReplica == nil {
			c.perReplica = make(map[string]int64)
		}
		c.perReplica[k] += v
	}
	for k, v := range o.perStatus {
		if c.perStatus == nil {
			c.perStatus = make(map[int]int64)
		}
		c.perStatus[k] += v
	}
	for k, v := range o.perDegrade {
		if c.perDegrade == nil {
			c.perDegrade = make(map[string]int64)
		}
		c.perDegrade[k] += v
	}
}

// hotOnlyFraction is the share of answered requests served at L2 or
// above — levels where match answers come from the hot tier only.
func (c *counters) hotOnlyFraction() float64 {
	var all, hot int64
	for lvl, n := range c.perDegrade {
		all += n
		if lvl >= "L2" {
			hot += n
		}
	}
	if all == 0 {
		return 0
	}
	return float64(hot) / float64(all)
}

// faultKind enumerates the hostile request shapes of chaos mode.
type faultKind int

const (
	faultNone faultKind = iota
	faultMalformed
	faultOversized
	faultTrickle
	faultAbort
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "base URL of the adwars-serve instance")
	rate := flag.Float64("rate", 0, "aggregate requests/sec across workers (0 = unthrottled)")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	duration := flag.Duration("duration", 5*time.Second, "how long to fire")
	jitter := flag.Float64("jitter", 0.2, "inter-request gap jitter fraction (0..1)")
	classifyFrac := flag.Float64("classify-frac", 0.1, "fraction of requests that POST /v1/classify")
	listsPath := flag.String("lists", "", "lists snapshot to harvest match URLs from")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "exit non-zero unless the run satisfies the accounting gate")
	usageCheck := flag.Bool("usage-check", false, "reconcile /admin/usage hit totals against this run's parsed match verdicts")
	analyticsCheck := flag.Bool("analytics-check", false, "reconcile /admin/analytics decision totals against this run's parsed verdicts (server must run -analytics at sampling 1.0)")
	maxBackoff := flag.Duration("max-backoff", 100*time.Millisecond, "cap on honoring a 429 Retry-After")
	chaos := flag.Bool("chaos", false, "mix hostile requests (malformed/oversized/trickle/abort) into the workload")
	faultFrac := flag.Float64("fault-frac", 0.25, "with -chaos, fraction of requests made hostile")
	bench := flag.Bool("bench", false, "emit a BenchmarkChaosLoadgen line (shed rate, recovered panics, aborted requests)")
	benchFleet := flag.Bool("bench-fleet", false, "emit a BenchmarkFleetLoadgen line (target must be an adwars-gateway)")
	benchBrownout := flag.Bool("bench-brownout", false, "emit a BenchmarkBrownoutLoadgen line (hot-only fraction, retry-budget exhaustions, transition p99)")
	degradeURLs := flag.String("degrade-url", "", "comma-separated replica base URLs whose /admin/degrade to read for -degrade-check and -bench-brownout")
	degradeCheck := flag.Bool("degrade-check", false, "after the run, wait for every -degrade-url replica to recover to L0 and assert the ladder climbed >= L2 and did not flap")
	probe := flag.Bool("probe", false, "send canonical requests, retry to 2xx, print bodies, exit")
	probeAttempts := flag.Int("probe-attempts", 50, "max retries per canonical probe request")
	flag.Parse()

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: *concurrency,
		},
	}

	if *probe {
		os.Exit(runProbe(client, *target, *probeAttempts))
	}
	if *usageCheck && *chaos {
		fmt.Fprintln(os.Stderr, "loadgen: -usage-check is incompatible with -chaos")
		os.Exit(2)
	}
	if *analyticsCheck && *chaos {
		fmt.Fprintln(os.Stderr, "loadgen: -analytics-check is incompatible with -chaos")
		os.Exit(2)
	}
	var usageBefore uint64
	if *usageCheck {
		v, err := fetchUsageTotal(client, *target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: usage-check baseline: %v\n", err)
			os.Exit(2)
		}
		usageBefore = v
	}
	var anlBefore *analyticsTotals
	if *analyticsCheck {
		at, err := fetchAnalyticsTotals(client, *target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: analytics-check baseline: %v\n", err)
			os.Exit(2)
		}
		if at.Counters.SampleRate < 1 {
			fmt.Fprintf(os.Stderr, "loadgen: analytics-check needs sampling 1.0, server is at %.3f\n", at.Counters.SampleRate)
			os.Exit(2)
		}
		anlBefore = at
	}

	domains := syntheticDomains(*seed)
	if *listsPath != "" {
		snap, err := abp.LoadListsSnapshot(*listsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: lists snapshot: %v\n", err)
			os.Exit(2)
		}
		var harvested []string
		for _, l := range snap.Lists {
			harvested = append(harvested, l.Domains()...)
		}
		if len(harvested) > 0 {
			// Keep some synthetic (non-listed) domains in the pool so both
			// the block and no-match paths are exercised.
			domains = append(harvested, domains[:len(domains)/4]...)
		}
	}
	scripts := workloadScripts(*seed)
	// One shared oversized body (default server cap is 1 MiB; this clears
	// it). Workers only ever read it, so sharing is safe.
	oversized := bytes.Repeat([]byte(`{"url":"x"} `), (1<<20)/12+2)

	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(*concurrency) / *rate * float64(time.Second))
	}

	deadline := time.Now().Add(*duration)
	start := time.Now()
	results := make([]counters, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			c := &results[w]
			for time.Now().Before(deadline) {
				kind := faultNone
				if *chaos && rng.Float64() < *faultFrac {
					kind = faultKind(1 + rng.Intn(4))
				}
				c.sent++
				t0 := time.Now()
				resp, rk, err := fire(client, *target, kind, rng, domains, scripts, *classifyFrac, oversized)
				if err != nil {
					// Transport-level death: an injected server-side close or
					// our own mid-body abort. Either way the request is
					// accounted for, not dropped.
					c.aborted++
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				c.latencies = append(c.latencies, time.Since(t0))
				c.observe(resp.StatusCode, resp.Header.Get("X-Adwars-Replica"),
					resp.Header.Get("X-Adwars-Degrade"))
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					c.ok2xx++
					if *usageCheck && rk == reqMatch {
						c.matchHits += countMatchHits(body)
					}
					if *analyticsCheck {
						c.ledgerVerdict(rk, body)
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					c.shed429++
					if d := retryAfter(resp, *maxBackoff); d > 0 {
						// Jitter the honored backoff into [d/2, d]: workers shed
						// in the same overload wave would otherwise all sleep the
						// same capped duration and re-arrive as a synchronized
						// herd that re-triggers the shed that sent them away.
						d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
						if remaining := time.Until(deadline); d > remaining {
							d = remaining
						}
						if d > 0 {
							c.backoffs++
							c.backoffTotal += d
							time.Sleep(d)
						}
					}
				case resp.StatusCode >= 500:
					if isPanicEnvelope(body) {
						c.panic5xx++
					} else {
						c.fail5xx++
					}
				default:
					c.other4xx++
				}
				if interval > 0 {
					gap := float64(interval) * (1 + *jitter*(2*rng.Float64()-1))
					time.Sleep(time.Duration(gap))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total counters
	for i := range results {
		total.add(&results[i])
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })

	mode := "loadgen"
	if *chaos {
		mode = "loadgen[chaos]"
	}
	fmt.Printf("%s: %d requests in %v (%.0f req/s, %d workers)\n",
		mode, total.sent, elapsed.Round(time.Millisecond), float64(total.sent)/elapsed.Seconds(), *concurrency)
	fmt.Printf("  2xx %d   429 shed %d   other 4xx %d   5xx %d   panic-5xx %d   aborted %d\n",
		total.ok2xx, total.shed429, total.other4xx, total.fail5xx, total.panic5xx, total.aborted)
	fmt.Printf("  backoff: %d sleeps totaling %v (Retry-After honored, capped at %v)\n",
		total.backoffs, total.backoffTotal.Round(time.Millisecond), *maxBackoff)
	if n := len(total.latencies); n > 0 {
		fmt.Printf("  latency p50 %v   p90 %v   p99 %v   max %v\n",
			total.latencies[n/2].Round(time.Microsecond),
			total.latencies[n*90/100].Round(time.Microsecond),
			total.latencies[n*99/100].Round(time.Microsecond),
			total.latencies[n-1].Round(time.Microsecond))
	}
	printBreakdowns(&total)

	if *bench {
		emitBenchLine(client, *target, &total, elapsed)
	}
	if *benchFleet {
		emitFleetBenchLine(client, *target, &total, elapsed)
	}
	if *benchBrownout {
		emitBrownoutBenchLine(client, *target, splitURLs(*degradeURLs), &total, elapsed)
	}

	if *check {
		if !runChecks(&total, *chaos) {
			os.Exit(1)
		}
	}
	if *degradeCheck {
		if !runDegradeCheck(client, splitURLs(*degradeURLs)) {
			os.Exit(1)
		}
	}
	if *usageCheck {
		if !runUsageCheck(client, *target, usageBefore, total.matchHits) {
			os.Exit(1)
		}
	}
	if *analyticsCheck {
		if !runAnalyticsCheck(client, *target, anlBefore, total.verdicts) {
			os.Exit(1)
		}
	}
}

// reqKind says which verdict-bearing endpoint a normal request hit, so
// the usage-check and analytics-check ledgers know how to parse its body.
// Fault requests are reqOther: their responses carry no verdicts.
type reqKind int

const (
	reqOther reqKind = iota
	reqMatch
	reqClassify
)

// fire issues one request of the given kind and returns the raw response
// plus which verdict-bearing endpoint (if any) it was.
func fire(client *http.Client, target string, kind faultKind, rng *rand.Rand,
	domains, scripts []string, classifyFrac float64, oversized []byte) (*http.Response, reqKind, error) {
	switch kind {
	case faultMalformed:
		// Valid HTTP, broken payload: truncated JSON to /v1/match or line
		// noise to /v1/classify — must come back 4xx, never 5xx.
		if rng.Intn(2) == 0 {
			resp, err := client.Post(target+"/v1/match", "application/json",
				bytes.NewReader([]byte(`{"url":"http://ads.exam`)))
			return resp, reqOther, err
		}
		resp, err := client.Post(target+"/v1/classify", "application/javascript",
			bytes.NewReader([]byte("\x00\x01function{{{")))
		return resp, reqOther, err
	case faultOversized:
		// Blows past the server's body cap → 413.
		resp, err := client.Post(target+"/v1/match", "application/json", bytes.NewReader(oversized))
		return resp, reqOther, err
	case faultTrickle:
		// A sound body delivered a few bytes at a time — slowloris-shaped.
		// The server should still answer it normally, just late.
		body := []byte(`{"url":"http://ads.example.com/banner.js","type":"script"}`)
		req, err := http.NewRequest(http.MethodPost, target+"/v1/match",
			&trickleReader{data: body, chunk: 7, gap: 2 * time.Millisecond})
		if err != nil {
			return nil, reqOther, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		resp, err := client.Do(req)
		return resp, reqOther, err
	case faultAbort:
		// The body dies mid-stream client-side; the transport surfaces an
		// error locally and the server sees an unexpected EOF.
		body := []byte(`{"url":"http://ads.example.com/banner.js","type":"script"}`)
		req, err := http.NewRequest(http.MethodPost, target+"/v1/match",
			&abortReader{data: body[:10]})
		if err != nil {
			return nil, reqOther, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		resp, err := client.Do(req)
		return resp, reqOther, err
	}
	// Normal traffic.
	if rng.Float64() < classifyFrac {
		resp, err := client.Post(target+"/v1/classify", "application/javascript",
			bytes.NewReader([]byte(scripts[rng.Intn(len(scripts))])))
		return resp, reqClassify, err
	}
	d := domains[rng.Intn(len(domains))]
	q := map[string]string{
		"url":         fmt.Sprintf("http://%s/assets/%d/unit.js", d, rng.Intn(1000)),
		"type":        "script",
		"page_domain": "publisher.example",
	}
	body, _ := json.Marshal(q)
	resp, err := client.Post(target+"/v1/match", "application/json", bytes.NewReader(body))
	return resp, reqMatch, err
}

// countMatchHits parses one 2xx /v1/match body and counts the per-list
// verdicts the server recorded usage for: every entry whose decision is
// not "no-match" is exactly one RecordUsage tick.
func countMatchHits(body []byte) int64 {
	var res struct {
		Lists []struct {
			Decision string `json:"decision"`
		} `json:"lists"`
	}
	if json.Unmarshal(body, &res) != nil {
		return 0
	}
	var n int64
	for _, lm := range res.Lists {
		if lm.Decision != "no-match" {
			n++
		}
	}
	return n
}

// fetchUsageTotal reads total_hits from /admin/usage (top disabled — the
// reconciliation only needs the aggregate).
func fetchUsageTotal(client *http.Client, target string) (uint64, error) {
	resp, err := client.Get(target + "/admin/usage?top=0")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /admin/usage: status %d", resp.StatusCode)
	}
	var dump struct {
		TotalHits uint64 `json:"total_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return 0, err
	}
	return dump.TotalHits, nil
}

// runUsageCheck re-reads /admin/usage and demands that the server-side
// hit delta equals the run's own parsed-verdict ledger.
func runUsageCheck(client *http.Client, target string, before uint64, matchHits int64) bool {
	after, err := fetchUsageTotal(client, target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: USAGE-CHECK FAILED: %v\n", err)
		return false
	}
	delta := int64(after - before)
	if delta != matchHits {
		fmt.Fprintf(os.Stderr, "loadgen: USAGE-CHECK FAILED: server recorded %d hits (total %d→%d) but ledger parsed %d match verdicts\n",
			delta, before, after, matchHits)
		return false
	}
	fmt.Printf("loadgen: USAGE-CHECK OK (server hit delta %d == %d parsed match verdicts)\n", delta, matchHits)
	return true
}

// ledgerVerdict parses one 2xx body into the -analytics-check ledger,
// keyed exactly like the server's /admin/analytics totals: a match
// response contributes "match/"+decision (the merged top-level verdict),
// a classify response contributes classify/anti-adblock or
// classify/benign.
func (c *counters) ledgerVerdict(rk reqKind, body []byte) {
	var key string
	switch rk {
	case reqMatch:
		var res struct {
			Decision string `json:"decision"`
		}
		if json.Unmarshal(body, &res) != nil || res.Decision == "" {
			return
		}
		key = "match/" + res.Decision
	case reqClassify:
		var res struct {
			AntiAdblock bool `json:"anti_adblock"`
		}
		if json.Unmarshal(body, &res) != nil {
			return
		}
		if res.AntiAdblock {
			key = "classify/anti-adblock"
		} else {
			key = "classify/benign"
		}
	default:
		return
	}
	if c.verdicts == nil {
		c.verdicts = make(map[string]int64)
	}
	c.verdicts[key]++
}

// analyticsTotals is the slice of the /admin/analytics snapshot the
// reconciliation reads: cumulative per-"kind/verdict" totals plus the
// accounting counters that prove nothing was dropped or sampled away.
type analyticsTotals struct {
	Enabled  bool              `json:"enabled"`
	Totals   map[string]uint64 `json:"totals"`
	Counters struct {
		Recorded      uint64  `json:"recorded"`
		Dropped       uint64  `json:"dropped"`
		SampledOut    uint64  `json:"sampled_out"`
		RingOccupancy int     `json:"ring_occupancy"`
		SampleRate    float64 `json:"sample_rate"`
	} `json:"counters"`
}

func fetchAnalyticsTotals(client *http.Client, target string) (*analyticsTotals, error) {
	resp, err := client.Get(target + "/admin/analytics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /admin/analytics: status %d (server not running -analytics?)", resp.StatusCode)
	}
	var at analyticsTotals
	if err := json.NewDecoder(resp.Body).Decode(&at); err != nil {
		return nil, err
	}
	if !at.Enabled {
		return nil, fmt.Errorf("analytics disabled on server")
	}
	return &at, nil
}

// runAnalyticsCheck re-reads /admin/analytics — polling briefly so the
// consumer can finish draining the rings — and demands that every
// per-"kind/verdict" total delta equals this run's ledger exactly, with
// zero new drops and zero sampled-out decisions.
func runAnalyticsCheck(client *http.Client, target string, before *analyticsTotals, ledger map[string]int64) bool {
	fail := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "loadgen: ANALYTICS-CHECK FAILED: "+format+"\n", args...)
		return false
	}
	var ledgerSum int64
	for _, v := range ledger {
		ledgerSum += v
	}
	// Poll until the rings are empty and the recorded delta covers the
	// ledger (the consumer drains on a few-ms cadence; 3s is generous).
	var after *analyticsTotals
	deadline := time.Now().Add(3 * time.Second)
	for {
		at, err := fetchAnalyticsTotals(client, target)
		if err != nil {
			return fail("%v", err)
		}
		after = at
		settled := at.Counters.RingOccupancy == 0 &&
			int64(at.Counters.Recorded-before.Counters.Recorded) >= ledgerSum
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if d := after.Counters.Dropped - before.Counters.Dropped; d != 0 {
		return fail("%d decisions dropped at the rings during the run", d)
	}
	if d := after.Counters.SampledOut - before.Counters.SampledOut; d != 0 {
		return fail("%d decisions sampled out (server not at sampling 1.0?)", d)
	}
	// Every key either side saw must reconcile — a key the server counted
	// but the ledger didn't (or vice versa) is as much a failure as a
	// mismatched count.
	keys := make(map[string]bool, len(ledger))
	for k := range ledger {
		keys[k] = true
	}
	for k := range after.Totals {
		if after.Totals[k] != before.Totals[k] {
			keys[k] = true
		}
	}
	ok := true
	for k := range keys {
		delta := int64(after.Totals[k] - before.Totals[k])
		if delta != ledger[k] {
			fmt.Fprintf(os.Stderr, "loadgen: ANALYTICS-CHECK FAILED: %s: server delta %d != ledger %d\n",
				k, delta, ledger[k])
			ok = false
		}
	}
	if !ok {
		return false
	}
	fmt.Printf("loadgen: ANALYTICS-CHECK OK (%d decisions across %d verdict keys reconcile exactly, zero drops)\n",
		ledgerSum, len(ledger))
	return true
}

// runChecks applies the pass/fail gate and reports the first violation.
func runChecks(total *counters, chaos bool) bool {
	fail := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "loadgen: CHECK FAILED: "+format+"\n", args...)
		return false
	}
	if total.ok2xx == 0 {
		return fail("no successful requests")
	}
	if total.fail5xx > 0 {
		return fail("%d unexplained 5xx responses", total.fail5xx)
	}
	if chaos {
		// Chaos ledger: every request ends as a success, an explicit
		// rejection, a counted recovered panic, or a counted abort.
		accounted := total.ok2xx + total.other4xx + total.shed429 + total.panic5xx + total.aborted
		if accounted != total.sent {
			return fail("sent %d but accounted %d (2xx %d + 4xx %d + 429 %d + panic-5xx %d + aborted %d)",
				total.sent, accounted, total.ok2xx, total.other4xx, total.shed429, total.panic5xx, total.aborted)
		}
		fmt.Printf("loadgen: CHECK OK (chaos ledger balanced: %d sent = %d 2xx + %d 4xx + %d shed + %d panic-5xx + %d aborted)\n",
			total.sent, total.ok2xx, total.other4xx, total.shed429, total.panic5xx, total.aborted)
		return true
	}
	if total.panic5xx > 0 {
		return fail("%d panic 5xx responses outside chaos mode", total.panic5xx)
	}
	if total.aborted > 0 {
		return fail("%d transport errors", total.aborted)
	}
	if accounted := total.ok2xx + total.shed429; accounted != total.sent {
		return fail("sent %d but only %d accounted as 2xx+429", total.sent, accounted)
	}
	if len(total.perDegrade) > 0 {
		fmt.Printf("loadgen: CHECK OK (all requests 2xx or 429, zero 5xx; by degrade level:%s)\n",
			degradeBreakdown(total))
		return true
	}
	fmt.Println("loadgen: CHECK OK (all requests 2xx or 429, zero 5xx)")
	return true
}

// retryAfter parses a 429's Retry-After header (seconds form) and caps it.
func retryAfter(resp *http.Response, limit time.Duration) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > limit {
		d = limit
	}
	return d
}

// isPanicEnvelope reports whether a 5xx body is the server's structured
// recovered-panic envelope (error.code == "internal_panic").
func isPanicEnvelope(body []byte) bool {
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	return json.Unmarshal(body, &envelope) == nil && envelope.Error.Code == "internal_panic"
}

// emitBenchLine prints a go-bench formatted result line for the chaos run.
// recovered-panics comes from the
// server's own /debug/vars (chaos-exempt control plane); if that read
// fails the line still goes out with the counter at -1.
func emitBenchLine(client *http.Client, target string, total *counters, elapsed time.Duration) {
	shedRate := 0.0
	if total.sent > 0 {
		shedRate = float64(total.shed429) / float64(total.sent)
	}
	recovered := float64(-1)
	if v, err := fetchPanicsRecovered(client, target); err == nil {
		recovered = v
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: warning: /debug/vars unreadable: %v\n", err)
	}
	nsPerOp := float64(elapsed.Nanoseconds())
	if total.sent > 0 {
		nsPerOp /= float64(total.sent)
	}
	fmt.Printf("BenchmarkChaosLoadgen %d %.0f ns/op %.4f shed-rate %.0f recovered-panics %d aborted-requests\n",
		total.sent, nsPerOp, shedRate, recovered, total.aborted)
}

// printBreakdowns renders the per-status and per-replica attribution of
// everything the run received.
func printBreakdowns(total *counters) {
	if len(total.perStatus) > 0 {
		statuses := make([]int, 0, len(total.perStatus))
		for s := range total.perStatus {
			statuses = append(statuses, s)
		}
		sort.Ints(statuses)
		fmt.Printf("  by status:")
		for _, s := range statuses {
			fmt.Printf("  %d=%d", s, total.perStatus[s])
		}
		fmt.Println()
	}
	if len(total.perReplica) > 0 {
		names := make([]string, 0, len(total.perReplica))
		for n := range total.perReplica {
			names = append(names, n)
		}
		sort.Strings(names)
		var answered int64
		for _, n := range names {
			answered += total.perReplica[n]
		}
		fmt.Printf("  by replica:")
		for _, n := range names {
			fmt.Printf("  %s=%d (%.0f%%)", n, total.perReplica[n],
				100*float64(total.perReplica[n])/float64(answered))
		}
		fmt.Println()
	}
	if len(total.perDegrade) > 0 {
		fmt.Printf("  by degrade level:%s  (hot-only fraction %.3f)\n",
			degradeBreakdown(total), total.hotOnlyFraction())
	}
}

// degradeBreakdown renders the per-level response counts in ladder order.
func degradeBreakdown(total *counters) string {
	levels := make([]string, 0, len(total.perDegrade))
	for l := range total.perDegrade {
		levels = append(levels, l)
	}
	sort.Strings(levels)
	var sb strings.Builder
	for _, l := range levels {
		fmt.Fprintf(&sb, "  %s=%d", l, total.perDegrade[l])
	}
	return sb.String()
}

// splitURLs splits a comma-separated URL list, dropping empties.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// degradeSnap is the slice of a replica's /admin/degrade snapshot the
// recovery check and brownout benchmark read.
type degradeSnap struct {
	Level           string `json:"level"`
	LevelNum        int    `json:"level_num"`
	PeakLevel       int    `json:"peak_level"`
	Transitions     uint64 `json:"transitions"`
	StepUps         uint64 `json:"step_ups"`
	StepDowns       uint64 `json:"step_downs"`
	TransitionP99Ns int64  `json:"transition_p99_ns"`
}

func fetchDegrade(client *http.Client, base string) (*degradeSnap, error) {
	resp, err := client.Get(base + "/admin/degrade")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/admin/degrade: status %d (replica not running -degrade?)", base, resp.StatusCode)
	}
	var snap degradeSnap
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// runDegradeCheck is the brownout recovery gate: each replica must come
// back to L0 within the poll window, its ladder must have climbed to at
// least L2 under the load this run generated, and the transition ledger
// must show exactly one climb and one descent — transitions == 2×peak
// with step-ups == step-downs — so hysteresis demonstrably prevented
// flapping.
func runDegradeCheck(client *http.Client, urls []string) bool {
	fail := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "loadgen: DEGRADE-CHECK FAILED: "+format+"\n", args...)
		return false
	}
	if len(urls) == 0 {
		return fail("no -degrade-url given")
	}
	for _, u := range urls {
		var snap *degradeSnap
		deadline := time.Now().Add(15 * time.Second)
		for {
			s, err := fetchDegrade(client, u)
			if err != nil {
				return fail("%v", err)
			}
			snap = s
			if snap.LevelNum == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if snap.LevelNum != 0 {
			return fail("%s: still at %s after 15s, never recovered to L0", u, snap.Level)
		}
		if snap.PeakLevel < 2 {
			return fail("%s: peak level L%d, want >= L2 (the run never pushed the ladder)", u, snap.PeakLevel)
		}
		if snap.Transitions != 2*uint64(snap.PeakLevel) || snap.StepUps != snap.StepDowns {
			return fail("%s: %d transitions (%d up, %d down) for peak L%d — want exactly %d (one climb, one descent): the ladder flapped",
				u, snap.Transitions, snap.StepUps, snap.StepDowns, snap.PeakLevel, 2*snap.PeakLevel)
		}
		fmt.Printf("loadgen: degrade %s: peak L%d, %d transitions (%d up / %d down), recovered to L0\n",
			u, snap.PeakLevel, snap.Transitions, snap.StepUps, snap.StepDowns)
	}
	fmt.Printf("loadgen: DEGRADE-CHECK OK (%d replicas climbed >= L2 and recovered without flapping)\n", len(urls))
	return true
}

// emitBrownoutBenchLine prints the brownout benchmark result: the share
// of answers served hot-only, the gateway's retry-budget exhaustions,
// and the worst replica's level-transition p99.
func emitBrownoutBenchLine(client *http.Client, target string, degradeURLs []string, total *counters, elapsed time.Duration) {
	budgetExhaustions := float64(-1)
	if gw, err := fetchGatewayVars(client, target); err == nil {
		budgetExhaustions = gw.BudgetExhausted
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: warning: gateway /debug/vars unreadable: %v\n", err)
	}
	transP99 := int64(-1)
	for _, u := range degradeURLs {
		if snap, err := fetchDegrade(client, u); err == nil {
			if snap.TransitionP99Ns > transP99 {
				transP99 = snap.TransitionP99Ns
			}
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: warning: %v\n", err)
		}
	}
	nsPerOp := float64(elapsed.Nanoseconds())
	if total.sent > 0 {
		nsPerOp /= float64(total.sent)
	}
	fmt.Printf("BenchmarkBrownoutLoadgen %d %.0f ns/op %.4f hot-only-fraction %.0f retry-budget-exhaustions %d degrade-transition-p99-ns\n",
		total.sent, nsPerOp, total.hotOnlyFraction(), budgetExhaustions, transP99)
}

// emitFleetBenchLine prints the fleet benchmark result: throughput through
// the gateway plus the gateway's own failover ledger (failovers, retries,
// hedges) read from its /debug/vars.
func emitFleetBenchLine(client *http.Client, target string, total *counters, elapsed time.Duration) {
	failovers, retries, hedges := float64(-1), float64(-1), float64(-1)
	if gw, err := fetchGatewayVars(client, target); err == nil {
		failovers, retries, hedges = gw.Failovers, gw.Retries, gw.Hedges
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: warning: gateway /debug/vars unreadable: %v\n", err)
	}
	nsPerOp := float64(elapsed.Nanoseconds())
	if total.sent > 0 {
		nsPerOp /= float64(total.sent)
	}
	fmt.Printf("BenchmarkFleetLoadgen %d %.0f ns/op %.0f failovers %.0f retries %.0f hedges %d replicas-seen\n",
		total.sent, nsPerOp, failovers, retries, hedges, len(total.perReplica))
}

// gatewayVars is the slice of the gateway's "adwars_gateway" expvar tree
// the fleet benchmark reports.
type gatewayVars struct {
	Failovers       float64 `json:"failovers"`
	Retries         float64 `json:"retries"`
	Hedges          float64 `json:"hedges"`
	BudgetExhausted float64 `json:"retry_budget_exhaustions"`
}

func fetchGatewayVars(client *http.Client, target string) (*gatewayVars, error) {
	resp, err := client.Get(target + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var vars struct {
		Gateway *gatewayVars `json:"adwars_gateway"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	if vars.Gateway == nil {
		return nil, fmt.Errorf("no adwars_gateway tree (target is not a gateway?)")
	}
	return vars.Gateway, nil
}

// fetchPanicsRecovered reads panics_recovered from the server's expvar
// endpoint.
func fetchPanicsRecovered(client *http.Client, target string) (float64, error) {
	resp, err := client.Get(target + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var vars struct {
		Serve struct {
			PanicsRecovered float64 `json:"panics_recovered"`
		} `json:"adwars_serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, err
	}
	return vars.Serve.PanicsRecovered, nil
}

// runProbe sends the canonical match and classify requests, retrying each
// until a 2xx (the target may be mid-chaos), and prints the bodies in a
// fixed order for byte-comparison between servers. Returns the exit code.
func runProbe(client *http.Client, target string, attempts int) int {
	probes := []struct {
		name, path, ctype, body string
	}{
		{"match", "/v1/match", "application/json",
			`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`},
		{"classify", "/v1/classify", "application/javascript", antiadblock.ReferenceBlockAdBlock},
	}
	for _, p := range probes {
		var body []byte
		got := false
		for i := 0; i < attempts && !got; i++ {
			resp, err := client.Post(target+p.path, p.ctype, bytes.NewReader([]byte(p.body)))
			if err != nil {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				body, got = b, true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !got {
			fmt.Fprintf(os.Stderr, "loadgen: probe %s: no 2xx in %d attempts\n", p.name, attempts)
			return 1
		}
		fmt.Printf("%s: %s\n", p.name, body)
	}
	return 0
}

// trickleReader feeds its data a few bytes per read, pausing between
// chunks — the shape of a slow client on a bad link.
type trickleReader struct {
	data  []byte
	chunk int
	gap   time.Duration
	off   int
}

func (t *trickleReader) Read(p []byte) (int, error) {
	if t.off >= len(t.data) {
		return 0, io.EOF
	}
	if t.off > 0 {
		time.Sleep(t.gap)
	}
	n := t.chunk
	if n > len(t.data)-t.off {
		n = len(t.data) - t.off
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, t.data[t.off:t.off+n])
	t.off += n
	return n, nil
}

// abortReader yields a partial body then dies, so the transport kills the
// request mid-stream.
type abortReader struct {
	data []byte
	off  int
}

func (a *abortReader) Read(p []byte) (int, error) {
	if a.off >= len(a.data) {
		return 0, fmt.Errorf("loadgen: injected mid-body abort")
	}
	n := copy(p, a.data[a.off:])
	a.off += n
	return n, nil
}

// syntheticDomains is the fallback URL pool when no lists snapshot is
// given: a spread of plausible ad-ish and clean hostnames.
func syntheticDomains(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, 256)
	for i := 0; i < 256; i++ {
		out = append(out, fmt.Sprintf("host%04d.example", rng.Intn(10000)))
	}
	return out
}

// workloadScripts returns the classify bodies: one real anti-adblock
// detector plus a handful of generated benign scripts.
func workloadScripts(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	scripts := []string{antiadblock.ReferenceBlockAdBlock}
	for _, k := range antiadblock.BenignKinds() {
		scripts = append(scripts, antiadblock.BenignScript(k, rng, antiadblock.GenOptions{}))
	}
	return scripts
}
