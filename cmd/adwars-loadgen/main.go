// Command adwars-loadgen drives an adwars-serve instance (or an
// adwars-gateway in front of several) with a mixed match/classify workload,
// reports throughput, latency quantiles and shed totals, and — with -check —
// holds the run to a table of named gates. The serving stack's scenario
// table (scenario_test.go) drives every load window through it.
//
// Usage:
//
//	adwars-loadgen -target http://127.0.0.1:8080 [-rate N] [-concurrency C]
//	               [-duration D] [-jitter F] [-classify-frac F]
//	               [-lists snapshot.json] [-seed S] [-chaos] [-fault-frac F]
//	               [-check gate,gate,...] [-degrade-url URL,URL,...]
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
// a jittered fraction (50–100%) of min(Retry-After, 100ms) before its next
// request, so workers shed together do not re-arrive together; the summary
// reports how often and how long workers backed off.
//
// Every response is entered into one ledger: what it became (2xx, 429,
// other 4xx, unexplained 5xx, recovered-panic 5xx, transport abort) and a
// tally keyed by HTTP status, by answering replica (X-Adwars-Replica,
// behind a gateway) and by brownout level (X-Adwars-Degrade). The summary
// prints all of it.
//
// -chaos turns a -fault-frac fraction of requests hostile: malformed JSON,
// oversized bodies, slow-trickle uploads, and mid-body aborts, mixed with
// normal traffic. 5xx responses are parsed: a structured internal_panic
// envelope (the server's recovered-panic signature) is counted separately
// from genuine failures.
//
// -check takes a comma list of gates, each a row of one table (gates) run
// over that ledger. A row may read the server before the run (an unusable
// baseline exits 2 before a request is sent); after the run every selected
// row prints NAME-CHECK OK or NAME-CHECK FAILED, and any failure makes the
// exit status 1:
//
//	ledger     some 2xx, zero unexplained 5xx, every request accounted for
//	usage      /admin/usage hit delta == match verdicts parsed by this run
//	analytics  /admin/analytics total deltas == verdicts parsed by this run
//	degrade    each -degrade-url replica climbed >= L1, is back at L0, no flap
//	failovers  the gateway at -target reports failovers >= 1
//
// usage and analytics need a server nobody else is talking to and are
// refused with -chaos, whose trickle requests land as uncounted late 2xx.
//
// -probe sends one canonical /v1/match and one canonical /v1/classify
// request, retrying each until it gets a 2xx (50 attempts), and prints the
// response bodies. Two probes against equivalent servers — e.g. a
// fault-free control and a post-chaos survivor — must be byte-identical.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/antiadblock"
	"adwars/internal/chassis"
	"adwars/internal/degrade"
)

const (
	// maxBackoff caps how long a worker honors a 429's Retry-After.
	maxBackoff = 100 * time.Millisecond
	// probeAttempts bounds the retries of one canonical -probe request.
	probeAttempts = 50
)

// The dimensions of counters.tally.
const (
	byStatus  = "status"
	byReplica = "replica"
	byDegrade = "degrade level"
	byVerdict = "verdict"
)

type tallyKey struct{ dim, key string }

// counters is the ledger: one per worker while firing, merged into one for
// the summary and the gates.
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
	matchHits    int64 // list verdicts != "no-match" parsed from 2xx /v1/match bodies (usage gate)
	latencies    []time.Duration
	// tally attributes answered requests by HTTP status, by the
	// X-Adwars-Replica header (behind a gateway: the balance across the
	// fleet) and by the X-Adwars-Degrade header (how much of the run was
	// served at each brownout level), and holds the analytics gate's
	// ledger: per-"kind/verdict" counts parsed from 2xx bodies, in the key
	// space of the server's /admin/analytics totals.
	tally map[tallyKey]int64
}

func (c *counters) count(dim, key string, n int64) {
	if key == "" {
		return
	}
	if c.tally == nil {
		c.tally = make(map[tallyKey]int64)
	}
	c.tally[tallyKey{dim, key}] += n
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
	c.latencies = append(c.latencies, o.latencies...)
	for k, v := range o.tally {
		c.count(k.dim, k.key, v)
	}
}

// by returns one dimension of the tally: its counts, and their keys in
// sorted order (statuses ascending, levels in ladder order).
func (c *counters) by(dim string) (keys []string, counts map[string]int64) {
	counts = make(map[string]int64)
	for k, v := range c.tally {
		if k.dim == dim {
			keys = append(keys, k.key)
			counts[k.key] = v
		}
	}
	sort.Strings(keys)
	return keys, counts
}

// checker is what a gate reads: the servers to ask, the merged ledger once
// the run is over, and whatever its own baseline read left behind.
type checker struct {
	client   *http.Client
	target   string
	replicas []string // -degrade-url
	chaos    bool
	total    *counters

	usageBefore uint64
	anlBefore   analytics.Snapshot
}

// gate is one row of the -check table. before, when set, reads the row's
// baseline from the server ahead of the run; after judges the finished run
// and returns either what it found in order (printed after NAME-CHECK OK)
// or the violation.
type gate struct {
	name   string
	before func(*checker) error
	after  func(*checker) (string, error)
}

var gates = []gate{
	{"ledger", nil, (*checker).ledger},
	{"usage", (*checker).usageBaseline, (*checker).usage},
	{"analytics", (*checker).analyticsBaseline, (*checker).analytics},
	{"degrade", nil, (*checker).degrade},
	{"failovers", nil, (*checker).failovers},
}

// selectGates resolves -check's comma list to rows of the table. A row
// with a baseline reconciles a server-side delta against the ledger to the
// unit, which chaos mode's late trickle answers break.
func selectGates(list string, chaos bool) (rows []gate, err error) {
	for _, name := range splitList(list) {
		i := slices.IndexFunc(gates, func(g gate) bool { return g.name == name })
		if i < 0 {
			return nil, fmt.Errorf("-check: unknown gate %q", name)
		}
		if chaos && gates[i].before != nil {
			return nil, fmt.Errorf("-check %s is incompatible with -chaos", name)
		}
		rows = append(rows, gates[i])
	}
	return rows, nil
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: 0 when the run (and every selected gate)
// passed, 1 when a gate or the probe failed, 2 when the run could not be
// set up as asked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adwars-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the adwars-serve instance")
	rate := fs.Float64("rate", 0, "aggregate requests/sec across workers (0 = unthrottled)")
	concurrency := fs.Int("concurrency", 8, "concurrent workers")
	duration := fs.Duration("duration", 5*time.Second, "how long to fire")
	jitter := fs.Float64("jitter", 0.2, "inter-request gap jitter fraction (0..1)")
	classifyFrac := fs.Float64("classify-frac", 0.1, "fraction of requests that POST /v1/classify")
	listsPath := fs.String("lists", "", "lists snapshot to harvest match URLs from")
	seed := fs.Int64("seed", 1, "workload seed")
	check := fs.String("check", "", "comma list of gates the run must pass: ledger, usage, analytics, degrade, failovers")
	chaos := fs.Bool("chaos", false, "mix hostile requests (malformed/oversized/trickle/abort) into the workload")
	faultFrac := fs.Float64("fault-frac", 0.25, "with -chaos, fraction of requests made hostile")
	degradeURLs := fs.String("degrade-url", "", "comma-separated replica base URLs whose /admin/degrade the degrade gate reads")
	probe := fs.Bool("probe", false, "send canonical requests, retry to 2xx, print bodies, exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "loadgen: "+format+"\n", a...)
		return 2
	}
	if *concurrency < 1 {
		return fatal("-concurrency %d: need at least one worker", *concurrency)
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: *concurrency,
		},
	}
	defer client.CloseIdleConnections()

	if *probe {
		return runProbe(client, *target, stdout, stderr)
	}
	rows, err := selectGates(*check, *chaos)
	if err != nil {
		return fatal("%v", err)
	}
	ck := &checker{client: client, target: *target, replicas: splitList(*degradeURLs), chaos: *chaos}
	// A row with a baseline reconciles it against the verdicts in this
	// run's 2xx bodies; without one, bodies are not parsed.
	parse := false
	for _, g := range rows {
		if g.before == nil {
			continue
		}
		parse = true
		if err := g.before(ck); err != nil {
			return fatal("%s-CHECK FAILED: baseline: %v", strings.ToUpper(g.name), err)
		}
	}

	domains := syntheticDomains(*seed)
	if *listsPath != "" {
		snap, err := abp.LoadListsSnapshot(*listsPath)
		if err != nil {
			return fatal("lists snapshot: %v", err)
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
	// One shared oversized body (the server's cap is 1 MiB; this clears
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
				c.count(byStatus, strconv.Itoa(resp.StatusCode), 1)
				c.count(byReplica, resp.Header.Get(chassis.ReplicaHeader), 1)
				c.count(byDegrade, resp.Header.Get(chassis.DegradeHeader), 1)
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					c.ok2xx++
					if parse {
						key, hits := parseVerdicts(rk, body)
						c.count(byVerdict, key, 1)
						c.matchHits += hits
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					c.shed429++
					if d := retryAfter(resp); d > 0 {
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
	fmt.Fprintf(stdout, "%s: %d requests in %v (%.0f req/s, %d workers)\n",
		mode, total.sent, elapsed.Round(time.Millisecond), float64(total.sent)/elapsed.Seconds(), *concurrency)
	fmt.Fprintf(stdout, "  2xx %d   429 shed %d   other 4xx %d   5xx %d   panic-5xx %d   aborted %d\n",
		total.ok2xx, total.shed429, total.other4xx, total.fail5xx, total.panic5xx, total.aborted)
	fmt.Fprintf(stdout, "  backoff: %d sleeps totaling %v (Retry-After honored, capped at %v)\n",
		total.backoffs, total.backoffTotal.Round(time.Millisecond), maxBackoff)
	if n := len(total.latencies); n > 0 {
		fmt.Fprintf(stdout, "  latency p50 %v   p90 %v   p99 %v   max %v\n",
			total.latencies[n/2].Round(time.Microsecond),
			total.latencies[n*90/100].Round(time.Microsecond),
			total.latencies[n*99/100].Round(time.Microsecond),
			total.latencies[n-1].Round(time.Microsecond))
	}
	for _, dim := range []string{byStatus, byReplica, byDegrade} {
		keys, counts := total.by(dim)
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  by %s:", dim)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %s=%d", k, counts[k])
		}
		fmt.Fprintln(stdout)
	}

	ck.total = &total
	code := 0
	for _, g := range rows {
		name := strings.ToUpper(g.name)
		if found, err := g.after(ck); err != nil {
			fmt.Fprintf(stderr, "loadgen: %s-CHECK FAILED: %v\n", name, err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "loadgen: %s-CHECK OK (%s)\n", name, found)
		}
	}
	return code
}

// reqKind says which verdict-bearing endpoint a normal request hit, so the
// usage and analytics ledgers know how to parse its body. Fault requests
// are reqOther: their responses carry no verdicts.
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

// parseVerdicts reads from one 2xx body what the reconciling gates count.
// key is the body's key in the analytics ledger, which is keyed exactly
// like the server's /admin/analytics totals: a match response is
// "match/"+decision (the merged top-level verdict), a classify response
// classify/anti-adblock or classify/benign; "" is a body with no verdict.
// hits is the usage ledger's share: every per-list verdict of a match
// response that is not "no-match" is exactly one RecordUsage tick.
func parseVerdicts(rk reqKind, body []byte) (key string, hits int64) {
	switch rk {
	case reqMatch:
		var res struct {
			Decision string `json:"decision"`
			Lists    []struct {
				Decision string `json:"decision"`
			} `json:"lists"`
		}
		if json.Unmarshal(body, &res) != nil {
			return "", 0
		}
		for _, lm := range res.Lists {
			if lm.Decision != "no-match" {
				hits++
			}
		}
		if res.Decision != "" {
			key = "match/" + res.Decision
		}
	case reqClassify:
		var res struct {
			AntiAdblock bool `json:"anti_adblock"`
		}
		if json.Unmarshal(body, &res) != nil {
			return "", 0
		}
		key = "classify/benign"
		if res.AntiAdblock {
			key = "classify/anti-adblock"
		}
	}
	return key, hits
}

// getJSON GETs url and decodes a 200's body into v.
func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ledger is the accounting gate: at least one request succeeded, there
// were no unexplained 5xx, and every request sent is accounted for — as a
// 2xx or a 429, with no panic-5xx and no transport error, or under the
// chaos ledger below. It is unchanged behind a gateway: retries happen
// inside it, so every client-visible request still ends as exactly
// one 2xx or 429.
func (ck *checker) ledger() (string, error) {
	t := ck.total
	if t.ok2xx == 0 {
		return "", errors.New("no successful requests")
	}
	if t.fail5xx > 0 {
		return "", fmt.Errorf("%d unexplained 5xx responses", t.fail5xx)
	}
	if ck.chaos {
		// Chaos ledger: every request ends as a success, an explicit
		// rejection, a counted recovered panic, or a counted abort.
		accounted := t.ok2xx + t.other4xx + t.shed429 + t.panic5xx + t.aborted
		if accounted != t.sent {
			return "", fmt.Errorf("sent %d but accounted %d (2xx %d + 4xx %d + 429 %d + panic-5xx %d + aborted %d)",
				t.sent, accounted, t.ok2xx, t.other4xx, t.shed429, t.panic5xx, t.aborted)
		}
		return fmt.Sprintf("chaos ledger balanced: %d sent = %d 2xx + %d 4xx + %d shed + %d panic-5xx + %d aborted",
			t.sent, t.ok2xx, t.other4xx, t.shed429, t.panic5xx, t.aborted), nil
	}
	if t.panic5xx > 0 {
		return "", fmt.Errorf("%d panic 5xx responses outside chaos mode", t.panic5xx)
	}
	if t.aborted > 0 {
		return "", fmt.Errorf("%d transport errors", t.aborted)
	}
	if accounted := t.ok2xx + t.shed429; accounted != t.sent {
		return "", fmt.Errorf("sent %d but only %d accounted as 2xx+429", t.sent, accounted)
	}
	return "all requests 2xx or 429, zero 5xx", nil
}

// usageTotal reads total_hits from /admin/usage (top disabled — the
// reconciliation only needs the aggregate).
func (ck *checker) usageTotal() (uint64, error) {
	var dump struct {
		TotalHits uint64 `json:"total_hits"`
	}
	err := getJSON(ck.client, ck.target+"/admin/usage?top=0", &dump)
	return dump.TotalHits, err
}

func (ck *checker) usageBaseline() (err error) {
	ck.usageBefore, err = ck.usageTotal()
	return err
}

// usage re-reads /admin/usage and demands that the server-side hit delta
// equals the run's own parsed-verdict ledger.
func (ck *checker) usage() (string, error) {
	after, err := ck.usageTotal()
	if err != nil {
		return "", err
	}
	delta := int64(after - ck.usageBefore)
	if delta != ck.total.matchHits {
		return "", fmt.Errorf("server recorded %d hits (total %d→%d) but ledger parsed %d match verdicts",
			delta, ck.usageBefore, after, ck.total.matchHits)
	}
	return fmt.Sprintf("server hit delta %d == %d parsed match verdicts", delta, ck.total.matchHits), nil
}

// analyticsNow reads the /admin/analytics snapshot: the reconciliation reads
// its cumulative per-"kind/verdict" totals and the accounting counters that
// prove nothing was dropped.
func (ck *checker) analyticsNow() (at analytics.Snapshot, err error) {
	err = getJSON(ck.client, ck.target+"/admin/analytics", &at)
	return at, err
}

// analyticsBaseline waits for the rings to empty first: decisions of earlier
// traffic still in them would reach the totals during the run and read as
// this run's. Rings that stay occupied for 3s leave no baseline to
// reconcile against, so the run is refused before it fires.
func (ck *checker) analyticsBaseline() (err error) {
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if ck.anlBefore, err = ck.analyticsNow(); err != nil {
			return err
		}
		if ck.anlBefore.Counters.RingOccupancy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rings did not drain: %d decisions still buffered after 3s", ck.anlBefore.Counters.RingOccupancy)
		}
	}
}

// analytics re-reads /admin/analytics — polling briefly so the consumer
// can finish draining the rings — and demands that every per-"kind/verdict"
// total delta equals this run's ledger exactly, with zero new drops.
func (ck *checker) analytics() (string, error) {
	before := &ck.anlBefore
	_, ledger := ck.total.by(byVerdict)
	var ledgerSum int64
	for _, v := range ledger {
		ledgerSum += v
	}
	// Poll until the rings are empty and the recorded delta covers the
	// ledger (the consumer drains on a few-ms cadence; 3s is generous).
	var after analytics.Snapshot
	deadline := time.Now().Add(3 * time.Second)
	for {
		at, err := ck.analyticsNow()
		if err != nil {
			return "", err
		}
		after = at
		settled := at.Counters.RingOccupancy == 0 &&
			int64(at.Counters.Recorded-before.Counters.Recorded) >= ledgerSum
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Decisions still buffered would read as per-key drift below; name what
	// is wrong instead, as the baseline does.
	if n := after.Counters.RingOccupancy; n != 0 {
		return "", fmt.Errorf("rings did not drain after the run: %d decisions still buffered after 3s", n)
	}
	if d := after.Counters.Dropped - before.Counters.Dropped; d != 0 {
		return "", fmt.Errorf("%d decisions dropped at the rings during the run", d)
	}
	// Every key either side saw must reconcile — a key the server counted
	// but the ledger didn't (or vice versa) is as much a failure as a
	// mismatched count — so the ledger takes on the server's keys, at zero.
	parsedKeys := len(ledger)
	for k := range after.Totals {
		ledger[k] += 0
	}
	var drift []string
	for k, want := range ledger {
		if delta := int64(after.Totals[k] - before.Totals[k]); delta != want {
			drift = append(drift, fmt.Sprintf("%s: server delta %d != ledger %d", k, delta, want))
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return "", errors.New(strings.Join(drift, "; "))
	}
	return fmt.Sprintf("%d decisions across %d verdict keys reconcile exactly, zero drops", ledgerSum, parsedKeys), nil
}

// degrade is the brownout recovery gate: each replica must come back to L0
// within the poll window, its ladder must have climbed to at least L1
// (classify shed) under this run's load, and the transition ledger must
// show exactly one climb and one descent — transitions == 2×peak with
// step-ups == step-downs — so hysteresis demonstrably prevented flapping.
func (ck *checker) degrade() (string, error) {
	if len(ck.replicas) == 0 {
		return "", errors.New("no -degrade-url given")
	}
	var ladders []string
	for _, u := range ck.replicas {
		var snap degrade.Snapshot
		deadline := time.Now().Add(15 * time.Second)
		for {
			if err := getJSON(ck.client, u+"/admin/degrade", &snap); err != nil {
				return "", err
			}
			if snap.LevelNum == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if snap.LevelNum != 0 {
			return "", fmt.Errorf("%s: still at %s after 15s, never recovered to L0", u, snap.Level)
		}
		if snap.PeakLevel < int(degrade.L1) {
			return "", fmt.Errorf("%s: peak level L%d, want >= L1 (the run never pushed the ladder)", u, snap.PeakLevel)
		}
		if snap.Transitions != 2*uint64(snap.PeakLevel) || snap.StepUps != snap.StepDowns {
			return "", fmt.Errorf("%s: %d transitions (%d up, %d down) for peak L%d — want exactly %d (one climb, one descent): the ladder flapped",
				u, snap.Transitions, snap.StepUps, snap.StepDowns, snap.PeakLevel, 2*snap.PeakLevel)
		}
		ladders = append(ladders, fmt.Sprintf("%s peak L%d, %d up / %d down", u, snap.PeakLevel, snap.StepUps, snap.StepDowns))
	}
	return fmt.Sprintf("%d replicas climbed >= L1 and recovered to L0 without flapping: %s",
		len(ladders), strings.Join(ladders, "; ")), nil
}

// failovers reads the gateway's own failover ledger from the
// "adwars_gateway" tree of its /debug/vars: a replica killed mid-run must
// have been absorbed by failover, not by luck.
func (ck *checker) failovers() (string, error) {
	var vars struct {
		Gateway *struct {
			Failovers float64 `json:"failovers"`
			Retries   float64 `json:"retries"`
		} `json:"adwars_gateway"`
	}
	if err := getJSON(ck.client, ck.target+"/debug/vars", &vars); err != nil {
		return "", err
	}
	gw := vars.Gateway
	if gw == nil {
		return "", errors.New("no adwars_gateway tree in /debug/vars (target is not a gateway?)")
	}
	if gw.Failovers < 1 {
		return "", fmt.Errorf("gateway reports %.0f failovers; a killed replica was not absorbed by failover", gw.Failovers)
	}
	replicas, _ := ck.total.by(byReplica)
	return fmt.Sprintf("gateway reports %.0f failovers, %.0f retries; %d replicas answered",
		gw.Failovers, gw.Retries, len(replicas)), nil
}

// retryAfter parses a 429's Retry-After header (seconds form) and caps it
// at maxBackoff.
func retryAfter(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxBackoff {
		d = maxBackoff
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

// splitList splits a comma-separated list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// runProbe sends the canonical match and classify requests, retrying each
// until a 2xx (the target may be mid-chaos), and prints the bodies in a
// fixed order for byte-comparison between servers. Returns the exit code.
func runProbe(client *http.Client, target string, stdout, stderr io.Writer) int {
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
		for i := 0; i < probeAttempts && !got; i++ {
			if i > 0 {
				time.Sleep(50 * time.Millisecond)
			}
			resp, err := client.Post(target+p.path, p.ctype, bytes.NewReader([]byte(p.body)))
			if err != nil {
				continue
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			got = resp.StatusCode >= 200 && resp.StatusCode < 300
		}
		if !got {
			fmt.Fprintf(stderr, "loadgen: probe %s: no 2xx in %d attempts\n", p.name, probeAttempts)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %s\n", p.name, body)
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
